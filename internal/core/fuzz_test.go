package core

import (
	"fmt"
	"math/rand"
	"testing"

	"secdir/internal/addr"
	"secdir/internal/cachesim"
	"secdir/internal/directory"
)

// TestSecDirSliceFuzzAgainstOracle mirrors internal/directory's slice-oracle
// fuzz for the SecDir implementation: after every operation, Find's sharer
// vector must match a model derived purely from the issued operations and
// returned actions — across ED, TD and all VD banks, through every
// ①-⑤ transition, with tiny geometries forcing constant migration.
func TestSecDirSliceFuzzAgainstOracle(t *testing.T) {
	variants := []struct {
		name   string
		mutate func(*Params)
	}{
		{"standard", func(*Params) {}},
		{"no-cuckoo", func(p *Params) { p.Cuckoo = false }},
		{"disable-edtd", func(p *Params) { p.DisableEDTD = true }},
		{"tiny-vd", func(p *Params) { p.VDSets = 2; p.VDWays = 1; p.NumRelocations = 2 }},
	}
	for vi, v := range variants {
		v := v
		seed := int64(vi + 1)
		t.Run(v.name, func(t *testing.T) {
			p := Params{
				Cores:  4,
				TDSets: 8, TDWays: 2,
				EDSets: 8, EDWays: 2,
				VDSets: 8, VDWays: 2,
				NumRelocations: 4,
				Cuckoo:         true,
				Index:          cachesim.FuncIndex(func(l addr.Line) int { return int(l) % 8 }),
				AppendixAFix:   true,
				Seed:           seed,
			}
			v.mutate(&p)
			fuzzSecDir(t, New(p), seed, 6000)
		})
	}
}

func fuzzSecDir(t *testing.T, s *Slice, seed int64, ops int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
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

	for i := 0; i < ops; i++ {
		c := rng.Intn(4)
		l := addr.Line(rng.Int63n(512))
		h := holders[l]
		switch {
		case !h.Has(c):
			write := rng.Intn(4) == 0
			res := s.Miss(c, l, write)
			apply(res.Actions)
			if !res.NoFill {
				holders[l] = holders[l].Set(c)
			}
		case rng.Intn(3) == 0:
			apply(s.Upgrade(c, l))
			if !holders[l].Has(c) || holders[l].Count() != 1 {
				t.Fatalf("op %d: upgrade sharers %b", i, holders[l])
			}
		default:
			acts := s.L2Evict(c, l, rng.Intn(2) == 0)
			holders[l] = holders[l].Clear(c)
			apply(acts)
		}
		if err := check(l); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		if i%500 == 499 {
			for ll := range holders {
				if err := check(ll); err != nil {
					t.Fatalf("op %d (sweep): %v", i, err)
				}
			}
		}
	}
}
