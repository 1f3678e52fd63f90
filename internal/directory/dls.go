package directory

import (
	"secdir/internal/addr"
	"secdir/internal/cachesim"
)

// DLSSlice is a DLS-style directoryless slice (Liu et al.): there is no
// extended directory at all — the shared LLC is inclusive and its tag array
// doubles as the coherence directory. Every cached line owns an LLC slot
// (HasData is always true), sharers ride on the tag, and coherence is
// resolved entirely through the shared-cache tags.
//
// The design removes the directory side channel by construction — there are
// no ED/TD structures whose conflicts an attacker can mine. What remains is
// the classic inclusive-LLC channel: an LLC set conflict still evicts the
// victim's line together with every private copy (an inclusion victim), and
// because the LLC is set-indexed by plain address bits, eviction sets are as
// computable as ever. The leaderboard quantifies exactly this residual
// channel.
type DLSSlice struct {
	tags *cachesim.Cache[Meta]

	// buf is the reusable action accumulator; see ActionBuf for the aliasing
	// contract the Slice methods inherit.
	buf  ActionBuf
	stat Stats
}

// Verify interface conformance.
var _ Slice = (*DLSSlice)(nil)

// DLSParams configures a DLSSlice. Ways is the LLC associativity — the
// baseline's TD + ED ways, modelling the directory storage folded back into
// the shared cache.
type DLSParams struct {
	Sets, Ways int
	Index      cachesim.Index
	Seed       int64
}

// NewDLS returns an empty directoryless (shared-LLC-tag) slice.
func NewDLS(p DLSParams) *DLSSlice {
	s := &DLSSlice{
		tags: cachesim.New[Meta](p.Sets, p.Ways, p.Index, cachesim.LRU, p.Seed),
	}
	s.buf.Grow(tdedBufCap)
	return s
}

// Reset implements Slice.
func (s *DLSSlice) Reset(seed int64) {
	s.tags.Reset(seed)
	s.buf.Reset()
	s.stat = Stats{}
}

// Miss implements Slice.
func (s *DLSSlice) Miss(core int, line addr.Line, write bool) MissResult {
	s.buf.Reset()
	if m, ok := s.tags.Access(line); ok {
		s.stat.TDHits++
		res := MissResult{Where: WhereTD}
		if m.Sharers != 0 {
			// A private copy is closer than the LLC slot: forward it, which
			// also lets the engine downgrade an exclusive owner.
			res.Source = SourceRemoteL2
			res.SrcCore = int32(m.Sharers.First())
		} else {
			res.Source = SourceLLC
		}
		if write {
			m.Sharers.ForEach(func(c int) {
				if c != core {
					s.buf.Emit(Action{Kind: InvalidateL2, Core: c, Line: line, Reason: ReasonCoherence})
				}
			})
			m.Sharers = Bitset(0).Set(core)
			// The writer owns the freshest data; the LLC copy is stale, not
			// dirty (the dirty private copy returns via L2Evict).
			m.Dirty = false
		} else {
			m.Sharers = m.Sharers.Set(core)
		}
		res.Actions = s.buf.Actions()
		return res
	}
	// Inclusive fill: the line is installed in the LLC tags and the
	// requester's private cache at once. An LLC set conflict evicts a
	// resident line with every private copy — the inclusion victim this
	// design still produces.
	s.stat.MemFetches++
	s.insert(line, Meta{Sharers: Bitset(0).Set(core), HasData: true})
	return MissResult{
		Where:     WhereNone,
		Source:    SourceMemory,
		Exclusive: !write,
		Actions:   s.buf.Actions(),
	}
}

// insert places an entry in the LLC tags, disposing of an evicted victim:
// dirty LLC data is written back and all private copies are invalidated.
func (s *DLSSlice) insert(line addr.Line, m Meta) {
	v, evicted := s.tags.Put(line, m)
	if !evicted {
		return
	}
	if v.Data.Dirty {
		s.buf.Emit(Action{Kind: WritebackMem, Line: v.Line, Reason: ReasonTDConflict})
	}
	v.Data.Sharers.ForEach(func(c int) {
		s.buf.Emit(Action{Kind: InvalidateL2, Core: c, Line: v.Line, Reason: ReasonTDConflict})
		s.stat.InclusionVictims++
	})
	s.stat.TDDrop++
}

// Upgrade implements Slice.
func (s *DLSSlice) Upgrade(core int, line addr.Line) []Action {
	s.buf.Reset()
	m, ok := s.tags.Probe(line)
	if !ok {
		panic("directory: upgrade for a line with no LLC tag (inclusion violated)")
	}
	m.Sharers.ForEach(func(c int) {
		if c != core {
			s.buf.Emit(Action{Kind: InvalidateL2, Core: c, Line: line, Reason: ReasonCoherence})
		}
	})
	m.Sharers = Bitset(0).Set(core)
	m.Dirty = false
	return s.buf.Actions()
}

// L2Evict implements Slice: the LLC already holds the line (inclusion), so
// the eviction just clears the presence bit; a dirty private copy refreshes
// the LLC slot, marking it dirty.
func (s *DLSSlice) L2Evict(core int, line addr.Line, dirty bool) []Action {
	m, ok := s.tags.Probe(line)
	if !ok {
		panic("directory: L2 evict for a line with no LLC tag (inclusion violated)")
	}
	if !m.Sharers.Has(core) {
		panic("directory: L2 evict by a non-sharer (DLS)")
	}
	m.Sharers = m.Sharers.Clear(core)
	m.Dirty = m.Dirty || dirty
	return nil
}

// Find implements Slice.
func (s *DLSSlice) Find(line addr.Line) (Meta, Where, bool) {
	if m, ok := s.tags.Probe(line); ok {
		return *m, WhereTD, true
	}
	return Meta{}, WhereNone, false
}

// Stats implements Slice.
func (s *DLSSlice) Stats() *Stats { return &s.stat }

// ForEach calls fn for every entry in the slice until fn returns false
// (invariant checks and conformance tests).
func (s *DLSSlice) ForEach(fn func(line addr.Line, m Meta, w Where) bool) {
	s.tags.Range(func(l addr.Line, m *Meta) bool {
		return fn(l, *m, WhereTD)
	})
}
