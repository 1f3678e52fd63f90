package core

import (
	"testing"

	"secdir/internal/addr"
	"secdir/internal/cachesim"
)

// skylakeSlice returns a SecDir slice at full 8-core Skylake-X slice
// geometry (Table 4).
func skylakeSlice() *Slice {
	return New(Params{
		Cores:  8,
		TDSets: 2048, TDWays: 11,
		EDSets: 2048, EDWays: 8,
		VDSets: 512, VDWays: 4,
		NumRelocations: 8,
		Cuckoo:         true,
		Index:          cachesim.ModIndex(2048),
		AppendixAFix:   true,
		Seed:           1,
	})
}

// BenchmarkMissColdStream measures the SecDir slice's miss path at full
// Skylake-X slice geometry (memory fetch + ED insertion + occasional
// migration chains).
func BenchmarkMissColdStream(b *testing.B) {
	s := skylakeSlice()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		line := addr.Line(i)
		s.Miss(i&7, line, false)
		// Keep the protocol consistent: evict immediately so sharer state
		// never references lines the bench does not track.
		s.L2Evict(i&7, line, false)
	}
}

// TestMissAllocFree pins zero heap allocations on Slice.Miss (ED/TD probes
// plus the parallel VD search of §5.1) once the slice is filled past its
// ED+TD capacity, counted over a whole window so no rare-path allocation
// averages away. The window must hit ED, TD, VD and memory and migrate TD
// entries into the VDs.
func TestMissAllocFree(t *testing.T) {
	s := skylakeSlice()
	const lines = 1 << 16 // 32 lines per set against 11 TD + 8 ED ways
	for i := 0; i < lines; i++ {
		s.Miss(i&7, addr.Line(1<<20+i), false)
	}
	before := *s.Stats()
	i := 0
	allocs := testing.AllocsPerRun(1, func() {
		for n := 0; n < 5000; n++ {
			s.Miss(i&7, addr.Line(1<<20+i), false)
			i++
		}
	})
	if allocs != 0 {
		t.Fatalf("%v heap allocations over 5000 misses, want 0", allocs)
	}
	after := s.Stats()
	if after.EDHits == before.EDHits || after.TDHits == before.TDHits || after.VDHits == before.VDHits ||
		after.MemFetches == before.MemFetches || after.TDToVD == before.TDToVD {
		t.Fatalf("window missed a path: before %+v, after %+v", before, *after)
	}
}
