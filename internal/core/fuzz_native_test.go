package core

import (
	"fmt"
	"testing"

	"secdir/internal/addr"
	"secdir/internal/cachesim"
	"secdir/internal/directory"
)

// fuzzSliceParams is the deliberately tiny geometry the native fuzz target
// runs against: a 2-set × 1-way VD with 2 relocations makes every burst of
// same-index misses walk cuckoo relocation chains and hit VD self-conflicts
// (transition ⑤) within a handful of operations.
func fuzzSliceParams() Params {
	return Params{
		Cores:  4,
		TDSets: 4, TDWays: 2,
		EDSets: 4, EDWays: 2,
		VDSets: 2, VDWays: 1,
		NumRelocations: 2,
		Cuckoo:         true,
		Index:          cachesim.FuncIndex(func(l addr.Line) int { return int(l) % 4 }),
		AppendixAFix:   true,
		Seed:           7,
	}
}

// FuzzSecDirSliceOps is a native fuzz target over raw operation bytes,
// checked against the same holders model as TestSecDirSliceFuzzAgainstOracle.
// Byte 2k encodes the op — bits 0-1 the core, bit 2 upgrade-vs-evict when the
// core holds the line, bit 3 the write/dirty flag — and byte 2k+1 the line.
// Ops that would be illegal for the current state (upgrade or evict of a line
// the core does not hold) decode to a miss instead, so every input is a legal
// sequence. Run with `go test -fuzz FuzzSecDirSliceOps ./internal/core` for
// open-ended exploration; under plain `go test` the seed corpus and the
// checked-in files under testdata/fuzz act as regression tests.
func FuzzSecDirSliceOps(f *testing.F) {
	// A burst of same-index misses from one core: ED fills, spills to TD,
	// TD victims retreat to the tiny VD and self-conflict.
	var burst []byte
	for l := byte(1); l < 126; l += 4 {
		burst = append(burst, 0, l)
	}
	f.Add(burst)
	// Two cores sharing then upgrading: exercises ReasonCoherence invalidates.
	f.Add([]byte{0, 9, 1, 9, 0x04, 9, 1, 9, 0x0c, 9})
	// Miss/evict churn on one VD set: Empty-Bit transitions both ways.
	f.Add([]byte{0, 3, 0x04, 3, 0, 3, 0x0c, 3, 0, 7, 0, 3})
	f.Fuzz(func(t *testing.T, ops []byte) {
		s := New(fuzzSliceParams())
		holders := map[addr.Line]directory.Bitset{}
		apply := func(acts []directory.Action) {
			for _, a := range acts {
				if a.Kind == directory.InvalidateL2 {
					holders[a.Line] = holders[a.Line].Clear(a.Core)
				}
			}
		}
		check := func(l addr.Line) error {
			want := holders[l]
			m, w, ok := s.Find(l)
			if want != 0 {
				if !ok || m.Sharers != want {
					return fmt.Errorf("line %#x in %v: sharers %b (ok=%v), oracle %b", uint64(l), w, m.Sharers, ok, want)
				}
				return nil
			}
			if ok && m.Sharers != 0 {
				return fmt.Errorf("line %#x in %v: stale sharers %b", uint64(l), w, m.Sharers)
			}
			return nil
		}

		for i := 0; i+1 < len(ops); i += 2 {
			b := ops[i]
			c := int(b & 3)
			flag := b&8 != 0
			l := addr.Line(ops[i+1] % 128)
			h := holders[l]
			switch {
			case h.Has(c) && b&4 == 0:
				apply(s.Upgrade(c, l))
				if !holders[l].Has(c) || holders[l].Count() != 1 {
					t.Fatalf("op %d: upgrade left sharers %b", i, holders[l])
				}
			case h.Has(c):
				acts := s.L2Evict(c, l, flag)
				holders[l] = holders[l].Clear(c)
				apply(acts)
			default:
				res := s.Miss(c, l, flag)
				apply(res.Actions)
				if !res.NoFill {
					holders[l] = holders[l].Set(c)
				}
			}
			if err := check(l); err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
		}
		for l := range holders {
			if err := check(l); err != nil {
				t.Fatalf("final sweep: %v", err)
			}
		}
	})
}
