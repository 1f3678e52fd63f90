package core

import (
	"testing"

	"secdir/internal/addr"
	"secdir/internal/cachesim"
	"secdir/internal/directory"
)

// Tiny geometry so every transition is easy to force.
const (
	tSets  = 8
	tTD    = 2
	tED    = 2
	tCores = 4
)

func index(l addr.Line) int { return int(l) % tSets }

func newSlice(opts ...func(*Params)) *Slice {
	p := Params{
		Cores:  tCores,
		TDSets: tSets, TDWays: tTD,
		EDSets: tSets, EDWays: tED,
		VDSets: 8, VDWays: 2,
		NumRelocations: 4,
		Cuckoo:         true,
		Index:          cachesim.FuncIndex(index),
		AppendixAFix:   true,
		Seed:           1,
	}
	for _, o := range opts {
		o(&p)
	}
	return New(p)
}

func lineInSet(set, i int) addr.Line { return addr.Line(set + i*tSets) }

// park pushes a line held by the given sharers into their VD banks by
// overflowing the TD set. It returns the parked line.
func park(t *testing.T, s *Slice, set int, sharers []int) addr.Line {
	t.Helper()
	l := lineInSet(set, 0)
	for _, c := range sharers {
		s.Miss(c, l, false)
	}
	// Demote it to the TD by conflicting it out of the ED, then conflict it
	// out of the TD. Keep inserting fresh single-sharer lines until the
	// target's entry shows up in a VD bank (replacement is randomized).
	for i := 1; i < 64; i++ {
		s.Miss(3, lineInSet(set, i), false)
		if s.VDBank(sharers[0]).Contains(l) {
			if _, w, _ := s.Find(l); w != directory.WhereVD {
				t.Fatalf("parked line reported in %v", w)
			}
			return l
		}
	}
	t.Fatal("could not park the line in the VD")
	return 0
}

func TestTransition3ParksInSharersVDs(t *testing.T) {
	s := newSlice()
	l := park(t, s, 0, []int{0, 1})
	for _, c := range []int{0, 1} {
		if !s.VDBank(c).Contains(l) {
			t.Fatalf("sharer %d has no VD entry after ③", c)
		}
	}
	if s.VDBank(2).Contains(l) {
		t.Fatal("non-sharer gained a VD entry")
	}
	if s.Stats().TDToVD == 0 {
		t.Fatal("transition ③ not counted")
	}
	// ③ is local to the directory: the sharers' copies were never touched
	// (no InvalidateL2 actions with a conflict reason were needed to verify
	// here because park() would have panicked applying them; assert via
	// stats instead).
	if s.Stats().InclusionVictims != 0 {
		t.Fatal("③ created inclusion victims")
	}
}

func TestTransition2DropsSharerless(t *testing.T) {
	s := newSlice()
	// Lines that live only in the LLC: fetch then evict from L2.
	var acts []directory.Action
	for i := 0; i < 32; i++ {
		l := lineInSet(1, i)
		s.Miss(0, l, false)
		acts = append(acts, s.L2Evict(0, l, i%2 == 0)...)
	}
	if s.Stats().TDDrop == 0 {
		t.Fatal("sharerless TD conflicts never dropped")
	}
	// Dirty drops must write back; nothing may be invalidated.
	var wb int
	for _, a := range acts {
		switch a.Kind {
		case directory.WritebackMem:
			wb++
		case directory.InvalidateL2:
			t.Fatalf("transition ② invalidated a private copy: %+v", a)
		}
	}
	if wb == 0 {
		t.Fatal("dirty LLC drops never wrote back")
	}
}

func TestTransition4Consolidates(t *testing.T) {
	s := newSlice()
	l := park(t, s, 2, []int{0, 1})
	acts := s.L2Evict(0, l, true)
	for _, a := range acts {
		if a.Kind == directory.InvalidateL2 && a.Line == l {
			t.Fatalf("④ invalidated the line: %+v", a)
		}
	}
	m, w, ok := s.Find(l)
	if !ok || w != directory.WhereTD {
		t.Fatalf("after ④ entry in %v (ok=%v)", w, ok)
	}
	if !m.HasData || !m.Dirty {
		t.Fatalf("④ TD entry %+v, want LLC data + dirty", m)
	}
	if !m.Sharers.Has(1) || m.Sharers.Has(0) || m.Sharers.Count() != 1 {
		t.Fatalf("④ sharers %b, want only core 1", m.Sharers)
	}
	for c := 0; c < tCores; c++ {
		if s.VDBank(c).Contains(l) {
			t.Fatalf("④ left a VD entry in bank %d", c)
		}
	}
	if s.Stats().VDToTD == 0 {
		t.Fatal("transition ④ not counted")
	}
}

func TestTransition5SelfConflictOnly(t *testing.T) {
	// 1-set 1-way banks conflict instantly.
	s := newSlice(func(p *Params) { p.VDSets = 1; p.VDWays = 1; p.NumRelocations = 2 })
	l1 := park(t, s, 3, []int{0})
	// Park a second line for core 0: its insertion must evict l1 from
	// core 0's bank only, invalidating l1 from core 0's L2 (transition ⑤).
	l2 := lineInSet(4, 0)
	s.Miss(0, l2, false)
	var acts []directory.Action
	for i := 1; i < 64 && !s.VDBank(0).Contains(l2); i++ {
		res := s.Miss(3, lineInSet(4, i), false)
		acts = append(acts, res.Actions...)
	}
	var evicted bool
	for _, a := range acts {
		if a.Kind == directory.InvalidateL2 && a.Line == l1 {
			if a.Core != 0 || a.Reason != directory.ReasonVDConflict {
				t.Fatalf("⑤ action %+v", a)
			}
			evicted = true
		}
	}
	if !evicted {
		t.Fatal("VD conflict never evicted the old entry")
	}
	if s.Stats().VDDrop == 0 {
		t.Fatal("transition ⑤ not counted")
	}
}

func TestVDReadHitAllocatesRequester(t *testing.T) {
	s := newSlice()
	l := park(t, s, 5, []int{0})
	res := s.Miss(2, l, false)
	if res.Where != directory.WhereVD || res.Source != directory.SourceRemoteL2 || res.SrcCore != 0 {
		t.Fatalf("VD read: %+v", res)
	}
	if !res.VDConsulted || res.VDBanksProbed == 0 {
		t.Fatalf("VD probe accounting: %+v", res)
	}
	if !s.VDBank(2).Contains(l) || !s.VDBank(0).Contains(l) {
		t.Fatal("requester or owner lost its VD entry on a read")
	}
	if s.Stats().VDHits != 1 {
		t.Fatalf("VDHits = %d", s.Stats().VDHits)
	}
}

func TestVDWriteInvalidatesOtherBanks(t *testing.T) {
	s := newSlice()
	l := park(t, s, 6, []int{0, 1})
	res := s.Miss(2, l, true)
	if res.Where != directory.WhereVD {
		t.Fatalf("VD write: %+v", res)
	}
	var invalidated directory.Bitset
	for _, a := range res.Actions {
		if a.Kind == directory.InvalidateL2 && a.Line == l {
			if a.Reason != directory.ReasonCoherence {
				t.Fatalf("write invalidation reason %v", a.Reason)
			}
			invalidated = invalidated.Set(a.Core)
		}
	}
	if !invalidated.Has(0) || !invalidated.Has(1) {
		t.Fatalf("write did not invalidate both sharers (%b)", invalidated)
	}
	if s.VDBank(0).Contains(l) || s.VDBank(1).Contains(l) {
		t.Fatal("old sharers kept VD entries after a write")
	}
	if !s.VDBank(2).Contains(l) {
		t.Fatal("writer has no VD entry")
	}
}

func TestVDUpgrade(t *testing.T) {
	s := newSlice()
	l := park(t, s, 7, []int{0, 1})
	acts := s.Upgrade(1, l)
	var hit bool
	for _, a := range acts {
		if a.Kind == directory.InvalidateL2 && a.Core == 0 && a.Line == l {
			hit = true
		}
	}
	if !hit {
		t.Fatal("upgrade did not invalidate the other sharer")
	}
	if s.VDBank(0).Contains(l) || !s.VDBank(1).Contains(l) {
		t.Fatal("VD entries wrong after upgrade")
	}
}

func TestDisableEDTDMode(t *testing.T) {
	s := newSlice(func(p *Params) { p.DisableEDTD = true })
	l := lineInSet(0, 0)
	res := s.Miss(0, l, false)
	if res.Where != directory.WhereNone || res.Source != directory.SourceMemory {
		t.Fatalf("cold miss: %+v", res)
	}
	if !s.VDBank(0).Contains(l) {
		t.Fatal("entry not allocated in the requester's VD")
	}
	if m, w, ok := s.Find(l); !ok || w != directory.WhereVD || !m.Sharers.Has(0) {
		t.Fatalf("Find: %+v %v %v", m, w, ok)
	}
	// Second core reads: VD hit.
	res = s.Miss(1, l, false)
	if res.Where != directory.WhereVD {
		t.Fatalf("second read: %+v", res)
	}
	// Eviction drops the entry; dirty data goes to memory.
	acts := s.L2Evict(0, l, true)
	if len(acts) != 1 || acts[0].Kind != directory.WritebackMem {
		t.Fatalf("evict actions %v", acts)
	}
	if s.VDBank(0).Contains(l) {
		t.Fatal("evicting core kept its VD entry")
	}
	if !s.VDBank(1).Contains(l) {
		t.Fatal("other sharer lost its VD entry")
	}
}

func TestNoFillWhenOwnEntryDisplaced(t *testing.T) {
	// A 1-set 1-way bank with an odd relocation bound displaces the
	// incoming entry itself: the slice must report NoFill rather than
	// strand a cached line without a directory entry.
	s := newSlice(func(p *Params) {
		p.DisableEDTD = true
		p.VDSets = 1
		p.VDWays = 1
		p.NumRelocations = 1
	})
	s.Miss(0, lineInSet(0, 0), false)
	res := s.Miss(0, lineInSet(1, 0), false)
	if !res.NoFill {
		t.Fatalf("expected NoFill, got %+v", res)
	}
	for _, a := range res.Actions {
		if a.Kind == directory.InvalidateL2 && a.Line == lineInSet(1, 0) {
			t.Fatal("NoFill emitted an invalidation for the never-filled line")
		}
	}
	if s.VDBank(0).Contains(lineInSet(1, 0)) {
		t.Fatal("NoFill left a VD entry")
	}
}

func TestEmptyBitAccounting(t *testing.T) {
	s := newSlice()
	// Empty VDs: a cold miss consults the VDs but the EB filters every bank.
	res := s.Miss(0, lineInSet(0, 0), false)
	if !res.VDConsulted || res.VDBanksProbed != 0 {
		t.Fatalf("EB should filter all banks on empty VDs: %+v", res)
	}
	st := s.Stats()
	if st.VDLookupsNoEB != uint64(tCores) || st.VDLookups != 0 {
		t.Fatalf("lookup counters: %d/%d", st.VDLookups, st.VDLookupsNoEB)
	}
}

func TestVDSelfConflictsCounter(t *testing.T) {
	s := newSlice(func(p *Params) {
		p.DisableEDTD = true
		p.VDSets = 2
		p.VDWays = 1
		p.NumRelocations = 2
	})
	for i := 0; i < 32; i++ {
		res := s.Miss(0, lineInSet(i%tSets, i/tSets), false)
		// apply self-invalidations implicitly: ignore, slice-level test
		_ = res
	}
	if s.VDSelfConflicts() == 0 {
		t.Fatal("overfilled bank reported no self-conflicts")
	}
}
