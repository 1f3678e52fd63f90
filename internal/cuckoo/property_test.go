package cuckoo

import (
	"math/rand"
	"testing"

	"secdir/internal/addr"
)

// refModel is a map-backed reference for a Table: a plain set of lines with
// the same external semantics (Insert adds the line and reports what the
// relocation chain evicted; Remove deletes; Contains probes).
type refModel map[addr.Line]bool

// applyInsert mirrors Table.Insert's contract onto the model: the new line is
// always added, and the evicted victim (possibly the new line itself, in the
// displaced-own-entry case) is dropped.
func (r refModel) applyInsert(l addr.Line, victim addr.Line, evicted bool) {
	if r[l] {
		return // Insert of a present line is a no-op; no eviction possible.
	}
	r[l] = true
	if evicted {
		delete(r, victim)
	}
}

// propConfig is one table geometry exercised by the property test.
type propConfig struct {
	name string
	cfg  Config
}

func propConfigs() []propConfig {
	return []propConfig{
		{"cuckoo", Config{Sets: 16, Ways: 2, NumRelocations: 8, Cuckoo: true, Seed: 11}},
		{"cuckoo-tight", Config{Sets: 2, Ways: 1, NumRelocations: 2, Cuckoo: true, Seed: 12}},
		{"plain", Config{Sets: 16, Ways: 2, Cuckoo: false, Seed: 14}},
	}
}

// TestTablePropertyVsModel drives random insert/remove/lookup sequences
// against the map-backed model and checks, after every operation:
//
//   - agreement: Contains matches the model for every line ever touched, and
//     Lines() is exactly the model's set (no lost or duplicated entries);
//   - occupancy: Len() equals the model's size and never exceeds
//     Capacity();
//   - bounded work (Appendix B): an insertion performs at most
//     NumRelocations relocation steps and evicts at most one entry.
func TestTablePropertyVsModel(t *testing.T) {
	for _, pc := range propConfigs() {
		pc := pc
		t.Run(pc.name, func(t *testing.T) {
			tab := New(pc.cfg)
			ref := refModel{}
			rng := rand.New(rand.NewSource(pc.cfg.Seed * 997))
			// A universe a few times the capacity keeps both hits and
			// conflicts frequent.
			universe := 4 * tab.Capacity()
			const ops = 20_000
			for i := 0; i < ops; i++ {
				l := addr.Line(rng.Intn(universe))
				switch op := rng.Intn(10); {
				case op < 6: // insert
					wasPresent := ref[l]
					relocBefore := tab.Relocated
					conflictsBefore := tab.Conflicts
					victim, evicted := tab.Insert(l)
					ref.applyInsert(l, victim, evicted)
					if wasPresent && evicted {
						t.Fatalf("op %d: inserting present line %#x evicted %#x", i, uint64(l), uint64(victim))
					}
					if steps := tab.Relocated - relocBefore; steps > uint64(pc.cfg.NumRelocations) {
						t.Fatalf("op %d: insert relocated %d entries, bound %d", i, steps, pc.cfg.NumRelocations)
					}
					if evicted {
						if tab.Conflicts != conflictsBefore+1 {
							t.Fatalf("op %d: eviction not counted as a conflict", i)
						}
						if ref[victim] && victim != l {
							t.Fatalf("op %d: victim %#x still in the model", i, uint64(victim))
						}
					}
				case op < 8: // remove
					got := tab.Remove(l)
					if want := ref[l]; got != want {
						t.Fatalf("op %d: Remove(%#x) = %v, model %v", i, uint64(l), got, want)
					}
					delete(ref, l)
				default: // lookup
					if got, want := tab.Contains(l), ref[l]; got != want {
						t.Fatalf("op %d: Contains(%#x) = %v, model %v", i, uint64(l), got, want)
					}
				}
				// Occupancy invariants.
				if tab.Len() != len(ref) {
					t.Fatalf("op %d: Len() = %d, model %d", i, tab.Len(), len(ref))
				}
				if tab.Len() > tab.Capacity() {
					t.Fatalf("op %d: occupancy %d over capacity %d", i, tab.Len(), tab.Capacity())
				}
			}
			// Final full-state agreement: no lost entries, no phantoms.
			lines := tab.Lines()
			if len(lines) != len(ref) {
				t.Fatalf("Lines() has %d entries, model %d", len(lines), len(ref))
			}
			seen := map[addr.Line]bool{}
			for _, l := range lines {
				if !ref[l] {
					t.Fatalf("phantom entry %#x", uint64(l))
				}
				if seen[l] {
					t.Fatalf("duplicated entry %#x", uint64(l))
				}
				seen[l] = true
			}
			for l := range ref {
				if !tab.Contains(l) {
					t.Fatalf("lost entry %#x", uint64(l))
				}
			}
		})
	}
}
