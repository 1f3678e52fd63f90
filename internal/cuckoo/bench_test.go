package cuckoo

import (
	"testing"

	"secdir/internal/addr"
)

func BenchmarkInsertSteadyState(b *testing.B) {
	t := New(Config{Sets: 512, Ways: 4, NumRelocations: 8, Cuckoo: true, Seed: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.Insert(addr.Line(uint64(i) * 0x9E3779B9 % (1 << 30)))
	}
}

func BenchmarkContains(b *testing.B) {
	t := New(Config{Sets: 512, Ways: 4, NumRelocations: 8, Cuckoo: true, Seed: 1})
	for i := 0; i < 1500; i++ {
		t.Insert(addr.Line(i * 977))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.Contains(addr.Line((i % 1500) * 977))
	}
}

// TestInsertRemoveAllocFree pins zero heap allocations on VD bank
// insert/remove at the 8-core SecDir bank geometry, over twice the capacity
// so the table stays full and inserts walk relocation chains (Appendix B).
// The whole window is one AllocsPerRun run so no rare-path allocation
// averages away.
func TestInsertRemoveAllocFree(t *testing.T) {
	tb := New(Config{Sets: 512, Ways: 4, NumRelocations: 8, Cuckoo: true, Seed: 1})
	lines := 2 * tb.Capacity()
	for i := 0; i < lines; i++ {
		tb.Insert(addr.Line(i))
	}
	i := 0
	allocs := testing.AllocsPerRun(1, func() {
		for n := 0; n < 5000; n++ {
			l := addr.Line(i % lines)
			if _, evicted := tb.Insert(l); !evicted {
				tb.Remove(l)
			}
			i++
		}
	})
	if allocs != 0 {
		t.Fatalf("%v heap allocations over 5000 insert/remove steps, want 0", allocs)
	}
}
