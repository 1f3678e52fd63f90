package cachesim

import (
	"testing"

	"secdir/internal/addr"
	"secdir/internal/rng"
)

func BenchmarkAccessHit(b *testing.B) {
	c := New[int](1024, 16, ModIndex(1024), LRU, 1)
	for i := 0; i < 1024*16; i++ {
		c.Put(addr.Line(i), i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(addr.Line(i & (1024*16 - 1)))
	}
}

// probeFill returns a warm L2-shaped cache (1024 sets × 16 ways) under
// policy and a probe+fill step over a uniform stream of four times its
// capacity, so about three quarters of probes miss and fill over a victim.
func probeFill(policy Policy) func() {
	const footprint = 4 * 1024 * 16
	c := New[struct{}](1024, 16, ModIndex(1024), policy, 1)
	r := rng.New(42)
	step := func() {
		l := addr.Line(r.Uint64() & (footprint - 1))
		if _, ok := c.Access(l); !ok {
			c.Put(l, struct{}{})
		}
	}
	for i := 0; i < 2*footprint; i++ {
		step()
	}
	return step
}

// TestProbeFillAllocFree pins zero heap allocations on probe+fill for every
// policy, counted over a whole window so no rare-path allocation averages
// away.
func TestProbeFillAllocFree(t *testing.T) {
	for _, p := range []Policy{LRU, Random} {
		step := probeFill(p)
		allocs := testing.AllocsPerRun(1, func() {
			for i := 0; i < 5000; i++ {
				step()
			}
		})
		if allocs != 0 {
			t.Errorf("%v: %v heap allocations over 5000 probe+fill steps, want 0", p, allocs)
		}
	}
}

// BenchmarkPutEvict times one probe+fill step per replacement policy.
func BenchmarkPutEvict(b *testing.B) {
	for _, p := range []Policy{LRU, Random} {
		b.Run(p.String(), func(b *testing.B) {
			step := probeFill(p)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step()
			}
		})
	}
}
