// Package core implements SecDir, the paper's primary contribution: a
// directory slice that re-assigns Extended Directory ways to per-core,
// cuckoo-hashed Victim Directory (VD) banks (Figure 2(b)).
//
// Entries displaced from the TD that still have sharers migrate into the
// sharers' private VD banks (transition ③ of Table 2) instead of being
// discarded, so a cross-core attacker cannot force inclusion victims in a
// victim's private caches. VD conflicts are self-conflicts by construction
// (transition ⑤) and leak nothing under the paper's threat model.
package core

import (
	"secdir/internal/addr"
	"secdir/internal/cachesim"
	"secdir/internal/cuckoo"
	"secdir/internal/directory"
)

// Slice is one SecDir directory slice: a TD, a narrower ED, and one VD bank
// per core.
type Slice struct {
	d     *directory.TDED
	vd    []*cuckoo.Table
	banks int

	// disableEDTD emulates the strongest adversary of §9, which fully
	// controls the shared ED and TD: the victim can use only its VDs.
	disableEDTD bool
}

// Verify interface conformance.
var _ directory.Slice = (*Slice)(nil)

// Params configures a SecDir slice.
type Params struct {
	Cores          int
	TDSets, TDWays int
	EDSets, EDWays int
	VDSets, VDWays int
	NumRelocations int
	Cuckoo         bool // cuckoo (CKVD) vs. single-hash (NoCKVD) banks
	DisableEDTD    bool
	Index          cachesim.Index
	AppendixAFix   bool
	Seed           int64
}

// New returns an empty SecDir slice.
func New(p Params) *Slice {
	s := &Slice{
		d:           directory.NewTDED(p.TDSets, p.TDWays, p.EDSets, p.EDWays, p.Index, p.AppendixAFix, p.Seed),
		vd:          make([]*cuckoo.Table, p.Cores),
		banks:       p.Cores,
		disableEDTD: p.DisableEDTD,
	}
	for c := range s.vd {
		s.vd[c] = cuckoo.New(cuckoo.Config{
			Sets:           p.VDSets,
			Ways:           p.VDWays,
			NumRelocations: p.NumRelocations,
			Cuckoo:         p.Cuckoo,
			Seed:           p.Seed + int64(c)*7919,
		})
	}
	s.d.TDVictim = s.tdVictim
	return s
}

// Reset restores the slice to the state New would produce with the given
// seed, reusing the TD/ED and VD-bank storage: the shared structures are
// emptied and every cuckoo bank reseeded exactly as construction seeds them
// (seed + bank*7919).
func (s *Slice) Reset(seed int64) {
	s.d.Reset(seed)
	for c, b := range s.vd {
		b.Reset(seed + int64(c)*7919)
	}
}

// AppendState implements directory.Slice: the TD/ED state, then every VD
// bank's, then the slice's mode.
func (s *Slice) AppendState(b []byte) []byte {
	b = s.d.AppendState(b)
	for _, bank := range s.vd {
		b = bank.AppendState(b)
	}
	eb := byte(0)
	if s.disableEDTD {
		eb = 1
	}
	return append(b, byte(s.banks), eb)
}

// tdVictim disposes of a TD conflict victim per Figure 3(b), appending the
// side effects to the slice's action buffer.
func (s *Slice) tdVictim(line addr.Line, m directory.Meta) {
	if m.HasData && m.Dirty {
		// The LLC copy is the up-to-date one; it goes back to memory
		// whether or not sharers keep clean copies.
		s.d.Buf.Emit(directory.Action{Kind: directory.WritebackMem, Line: line, Reason: directory.ReasonTDConflict})
	}
	if m.Sharers == 0 {
		// Transition ②: the line lives only in the LLC, which means the
		// victim itself evicted it from its private cache (a self-conflict).
		// Discarding it is secure.
		s.d.Stat.TDDrop++
		return
	}
	// Transition ③: migrate the entry into the VD bank of every sharer.
	// This is local to the directory: no coherence transactions, no L2 state
	// changes, and the sharers keep their lines.
	s.d.Stat.TDToVD++
	m.Sharers.ForEach(func(c int) {
		s.insertVD(c, line)
	})
}

// insertVD places the line in core's VD bank. A cuckoo conflict evicts some
// entry of the same bank (transition ⑤): the corresponding line is
// invalidated from that core's L2 only — a self-conflict, emitted into the
// slice's action buffer. If the insertion of the line itself fails (the
// relocation chain ends by displacing the new entry), the line simply gains
// no VD entry and the caller invalidates it.
func (s *Slice) insertVD(core int, line addr.Line) {
	victim, evicted := s.vd[core].Insert(line)
	if !evicted {
		return
	}
	s.d.Stat.VDDrop++
	s.d.Buf.Emit(directory.Action{
		Kind: directory.InvalidateL2, Core: core, Line: victim, Reason: directory.ReasonVDConflict,
	})
}

// vdSharers searches every VD bank in parallel (§5.1) and assembles the
// presence bit vector of Figure 4(b), counting bank look-ups with and without
// the Empty Bit filter (§5.2.2).
func (s *Slice) vdSharers(line addr.Line) directory.Bitset {
	// All banks share one geometry, so the skewing hashes agree across banks:
	// hash the line once and probe every bank at the precomputed pair — the
	// hardware computes h1/h2 once per request too, not once per bank.
	s0, s1 := s.vd[0].SetPair(line)
	var sh directory.Bitset
	for c := 0; c < s.banks; c++ {
		s.d.Stat.VDLookupsNoEB++
		if s.vd[c].EmptyBitHitAt(s0, s1) {
			continue
		}
		s.d.Stat.VDLookups++
		if s.vd[c].ContainsAt(line, s0, s1) {
			sh = sh.Set(c)
		}
	}
	return sh
}

// Miss implements directory.Slice.
func (s *Slice) Miss(core int, line addr.Line, write bool) directory.MissResult {
	s.d.Buf.Reset()
	var edCur, tdCur cachesim.Cursor
	if !s.disableEDTD {
		m, slot, c1 := s.d.ED.AccessCursor(line)
		if slot >= 0 {
			s.d.Stat.EDHits++
			res := directory.MissResult{
				Where:   directory.WhereED,
				Source:  directory.SourceRemoteL2,
				SrcCore: int32(m.Sharers.First()),
			}
			edServe(&s.d.Buf, m, core, line, write)
			res.Actions = s.d.Buf.Actions()
			return res
		}
		edCur = c1
		m, slot, c2 := s.d.TD.AccessCursor(line)
		if slot >= 0 {
			s.d.Stat.TDHits++
			res := directory.MissResult{Where: directory.WhereTD}
			if !m.HasData {
				res.SrcCore = int32(m.Sharers.First())
			}
			if write {
				meta := *m
				if meta.HasData {
					res.Source = directory.SourceLLC
				} else {
					res.Source = directory.SourceRemoteL2
				}
				s.d.PromoteTDToEDAt(edCur, slot, core, line, meta)
			} else {
				fromLLC := s.d.ReadHitTDAt(edCur, slot, core, line, m)
				if fromLLC {
					res.Source = directory.SourceLLC
				} else {
					res.Source = directory.SourceRemoteL2
				}
			}
			res.Actions = s.d.Buf.Actions()
			return res
		}
		tdCur = c2
	}

	// ED and TD missed: consult the Victim Directories (§5.1).
	probedBefore := s.d.Stat.VDLookups
	sharers := s.vdSharers(line)
	res := directory.MissResult{
		VDConsulted:   true,
		VDBanksProbed: uint8(s.d.Stat.VDLookups - probedBefore),
	}
	if sharers != 0 {
		s.d.Stat.VDHits++
		res.Where = directory.WhereVD
		res.Source = directory.SourceRemoteL2
		res.SrcCore = int32(sharers.First())
		if write {
			// Invalidate every sharer and its VD entry; the writer's entry
			// is allocated in the writer's own bank (§5.1).
			sharers.ForEach(func(c int) {
				s.vd[c].Remove(line)
				s.d.Buf.Emit(directory.Action{
					Kind: directory.InvalidateL2, Core: c, Line: line, Reason: directory.ReasonCoherence,
				})
			})
		}
		s.allocRequester(core, line, &res)
		res.Actions = s.d.Buf.Actions()
		return res
	}

	// Nothing anywhere: fetch from memory (transition ①). The entry goes to
	// the ED, or to the requester's VD bank when the shared structures are
	// disabled (§9's strongest-adversary emulation).
	s.d.Stat.MemFetches++
	res.Where = directory.WhereNone
	res.Source = directory.SourceMemory
	res.Exclusive = !write
	if s.disableEDTD {
		s.allocRequester(core, line, &res)
	} else {
		s.d.InsertEDAt(edCur, tdCur, line, directory.Meta{
			Sharers: directory.Bitset(0).Set(core), Dirty: write,
		})
	}
	res.Actions = s.d.Buf.Actions()
	return res
}

// allocRequester inserts the requester's VD entry for a line served out of
// the VDs (or out of memory in disableEDTD mode), emitting any self-conflict
// invalidation into the slice's action buffer. If the cuckoo chain ends by
// displacing the new entry itself, the fill is suppressed (NoFill) instead of
// caching a line with no directory entry.
func (s *Slice) allocRequester(core int, line addr.Line, res *directory.MissResult) {
	victim, evicted := s.vd[core].Insert(line)
	if !evicted {
		return
	}
	s.d.Stat.VDDrop++
	if victim == line {
		res.NoFill = true
		return
	}
	s.d.Buf.Emit(directory.Action{
		Kind: directory.InvalidateL2, Core: core, Line: victim, Reason: directory.ReasonVDConflict,
	})
}

// edServe mirrors the baseline's in-place ED update for a miss, appending a
// write's coherence invalidations to buf.
func edServe(buf *directory.ActionBuf, m *directory.Meta, core int, line addr.Line, write bool) {
	if !write {
		m.Sharers = m.Sharers.Set(core)
		return
	}
	m.Sharers.ForEach(func(c int) {
		if c != core {
			buf.Emit(directory.Action{Kind: directory.InvalidateL2, Core: c, Line: line, Reason: directory.ReasonCoherence})
		}
	})
	m.Sharers = directory.Bitset(0).Set(core)
	m.Dirty = true
}

// Upgrade implements directory.Slice.
func (s *Slice) Upgrade(core int, line addr.Line) []directory.Action {
	s.d.Buf.Reset()
	if !s.disableEDTD {
		if m, ok := s.d.ED.Access(line); ok {
			edServe(&s.d.Buf, m, core, line, true)
			return s.d.Buf.Actions()
		}
		if m, ok := s.d.TD.Access(line); ok {
			s.d.Stat.TDHits++
			s.d.PromoteTDToED(core, line, *m)
			return s.d.Buf.Actions()
		}
	}
	sharers := s.vdSharers(line)
	if !sharers.Has(core) {
		panic("core: upgrade by a core with no VD entry or directory entry")
	}
	sharers.ForEach(func(c int) {
		if c == core {
			return
		}
		s.vd[c].Remove(line)
		s.d.Buf.Emit(directory.Action{
			Kind: directory.InvalidateL2, Core: c, Line: line, Reason: directory.ReasonCoherence,
		})
	})
	return s.d.Buf.Actions()
}

// L2Evict implements directory.Slice. A line whose entry lives in the VDs is
// consolidated into a single TD entry (transition ④): all banks are searched,
// matching entries are removed, and the line is written into the LLC.
func (s *Slice) L2Evict(core int, line addr.Line, dirty bool) []directory.Action {
	s.d.Buf.Reset()
	if !s.disableEDTD {
		if m, slot := s.d.ED.ProbeSlot(line); slot >= 0 {
			meta := *m
			if !meta.Sharers.Has(core) {
				panic("core: L2 evict by a non-sharer (ED)")
			}
			s.d.ED.RemoveSlot(slot)
			s.d.Stat.EDToTD++
			meta.Sharers = meta.Sharers.Clear(core)
			meta.HasData = true
			meta.Dirty = dirty
			s.d.InsertTD(line, meta)
			return s.d.Buf.Actions()
		}
		if m, ok := s.d.TD.Probe(line); ok {
			if !m.Sharers.Has(core) {
				panic("core: L2 evict by a non-sharer (TD)")
			}
			m.Sharers = m.Sharers.Clear(core)
			m.HasData = true
			m.Dirty = m.Dirty || dirty
			return nil
		}
	}

	if s.disableEDTD {
		// No LLC/TD to receive the victim: the evicting core's VD entry is
		// dropped with the line; other sharers are undisturbed.
		if !s.vd[core].Remove(line) {
			panic("core: L2 evict for a line with no directory entry")
		}
		if dirty {
			s.d.Buf.Emit(directory.Action{Kind: directory.WritebackMem, Line: line, Reason: directory.ReasonCoherence})
		}
		return s.d.Buf.Actions()
	}

	// Transition ④: the entry must be in the VDs; consolidate.
	var sharers directory.Bitset
	s0, s1 := s.vd[0].SetPair(line)
	for c := 0; c < s.banks; c++ {
		if s.vd[c].ContainsAt(line, s0, s1) {
			sharers = sharers.Set(c)
			s.vd[c].Remove(line)
		}
	}
	if !sharers.Has(core) {
		panic("core: L2 evict for a line with no directory entry")
	}
	s.d.Stat.VDToTD++
	meta := directory.Meta{
		Sharers: sharers.Clear(core),
		HasData: true,
		Dirty:   dirty,
	}
	s.d.InsertTD(line, meta)
	return s.d.Buf.Actions()
}

// Find implements directory.Slice.
func (s *Slice) Find(line addr.Line) (directory.Meta, directory.Where, bool) {
	if m, w, ok := s.d.Find(line); ok {
		return m, w, ok
	}
	var sh directory.Bitset
	s0, s1 := s.vd[0].SetPair(line)
	for c := 0; c < s.banks; c++ {
		if s.vd[c].ContainsAt(line, s0, s1) {
			sh = sh.Set(c)
		}
	}
	if sh != 0 {
		return directory.Meta{Sharers: sh}, directory.WhereVD, true
	}
	return directory.Meta{}, directory.WhereNone, false
}

// Stats implements directory.Slice.
func (s *Slice) Stats() *directory.Stats { return &s.d.Stat }

// VDBank exposes core's VD bank in this slice for tests and experiments.
func (s *Slice) VDBank(core int) *cuckoo.Table { return s.vd[core] }

// TDED exposes the shared structures for tests and the attack toolkit.
func (s *Slice) TDED() *directory.TDED { return s.d }

// VDSelfConflicts returns the total cuckoo conflicts across all banks of this
// slice — the CKVD/NoCKVD metric of Table 6.
func (s *Slice) VDSelfConflicts() uint64 {
	var n uint64
	for _, b := range s.vd {
		n += b.Conflicts
	}
	return n
}
