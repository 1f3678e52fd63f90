package directory

import (
	"secdir/internal/addr"
	"secdir/internal/dirtyset"
	"secdir/internal/hashfn"
	"secdir/internal/rng"
)

// SkewedSlice is a SEED-style linearly-skewed directory slice (Constable &
// Unterluggauer, "Seeds of SEED: a side-channel resilient cache skewed by a
// linear function over a Galois field"): one unified table whose every way is
// indexed by its own secret invertible affine map over GF(2^n)
// (hashfn.GFHash). A line probes one candidate slot per way; a conflict can
// only evict from those W candidate sets, and which sets those are is a keyed
// function the attacker cannot compute — so targeted eviction-set
// construction fails, and the skew disperses even accidental conflicts
// across ways.
//
// The coherence protocol mirrors the Appendix-A-fixed baseline with the
// ED/TD split collapsed into one structure: a data-less entry (HasData ==
// false) plays the ED role (sharers tracked, data in a private cache), an
// entry with HasData owns the LLC victim copy like a TD entry. Entries never
// migrate between structures — placement is fixed by the skew — which keeps
// every transition a single-slot update.
type SkewedSlice struct {
	sets, ways int
	gf         *hashfn.GFHash
	arr        []skewEntry // way-major: way w occupies arr[w*sets : (w+1)*sets]
	rng        rng.Rand
	// dirty has one bit per slot of arr (each way is direct-mapped, so a
	// slot is a set) and marks every slot insert has filled since
	// construction or the last Reset.
	dirty dirtyset.Bitmap

	// buf is the reusable action accumulator; see ActionBuf for the aliasing
	// contract the Slice methods inherit.
	buf  ActionBuf
	stat Stats
}

// Verify interface conformance.
var _ Slice = (*SkewedSlice)(nil)

// skewEntry is one slot of the skewed table.
type skewEntry struct {
	line  addr.Line
	valid bool
	meta  Meta
}

// SkewedParams configures a SkewedSlice. Ways is the unified associativity
// (the baseline's TD + ED ways, so storage is comparable).
type SkewedParams struct {
	Sets, Ways int
	Seed       int64
}

// NewSkewed returns an empty skewed directory slice keyed by Seed.
func NewSkewed(p SkewedParams) *SkewedSlice {
	s := &SkewedSlice{
		sets:  p.Sets,
		ways:  p.Ways,
		gf:    hashfn.NewGFHash(p.Sets, p.Ways, p.Seed),
		arr:   make([]skewEntry, p.Sets*p.Ways),
		rng:   rng.New(skewSeed(p.Seed)),
		dirty: dirtyset.New(p.Sets * p.Ways),
	}
	s.buf.Grow(tdedBufCap)
	return s
}

// skewSeed is the conflict generator's seed.
func skewSeed(seed int64) int64 { return seed ^ 0x5EED5 }

// Reset implements Slice: the GF key schedule is redrawn in place and only
// the slots filled since the last Reset are cleared.
func (s *SkewedSlice) Reset(seed int64) {
	s.gf.Rekey(seed)
	s.dirty.Drain(func(i int) { s.arr[i] = skewEntry{} })
	s.rng = rng.New(skewSeed(seed))
	s.buf.Reset()
	s.stat = Stats{}
}

// slotIndex returns the arr index of way w's candidate slot for the line.
func (s *SkewedSlice) slotIndex(w int, line addr.Line) int {
	return w*s.sets + s.gf.Index(w, uint64(line))
}

// slot returns way w's candidate slot for the line.
func (s *SkewedSlice) slot(w int, line addr.Line) *skewEntry {
	return &s.arr[s.slotIndex(w, line)]
}

// find returns the entry holding the line, or nil.
func (s *SkewedSlice) find(line addr.Line) *skewEntry {
	for w := 0; w < s.ways; w++ {
		if e := s.slot(w, line); e.valid && e.line == line {
			return e
		}
	}
	return nil
}

// insert places a new entry in an empty candidate slot, or evicts a random
// way's resident — the skewed design's only conflict path. The victim is
// disposed of like a TD conflict: dirty LLC data is written back and every
// private copy is invalidated (ReasonTDConflict), but because the candidate
// sets are keyed, an attacker cannot choose whose entries those are.
func (s *SkewedSlice) insert(line addr.Line, m Meta) {
	for w := 0; w < s.ways; w++ {
		if i := s.slotIndex(w, line); !s.arr[i].valid {
			s.arr[i] = skewEntry{line: line, valid: true, meta: m}
			s.dirty.Mark(i)
			return
		}
	}
	e := s.slot(s.rng.Intn(s.ways), line)
	v, vm := e.line, e.meta
	*e = skewEntry{line: line, valid: true, meta: m}
	if vm.HasData && vm.Dirty {
		s.buf.Emit(Action{Kind: WritebackMem, Line: v, Reason: ReasonTDConflict})
	}
	vm.Sharers.ForEach(func(c int) {
		s.buf.Emit(Action{Kind: InvalidateL2, Core: c, Line: v, Reason: ReasonTDConflict})
		s.stat.InclusionVictims++
	})
	s.stat.TDDrop++
}

// Miss implements Slice.
func (s *SkewedSlice) Miss(core int, line addr.Line, write bool) MissResult {
	s.buf.Reset()
	if e := s.find(line); e != nil {
		res := MissResult{}
		if e.meta.HasData {
			s.stat.TDHits++
			res.Where = WhereTD
			res.Source = SourceLLC
		} else {
			s.stat.EDHits++
			res.Where = WhereED
			res.Source = SourceRemoteL2
			res.SrcCore = int32(e.meta.Sharers.First())
		}
		if write {
			e.meta.Sharers.ForEach(func(c int) {
				if c != core {
					s.buf.Emit(Action{Kind: InvalidateL2, Core: c, Line: line, Reason: ReasonCoherence})
				}
			})
			// The writer takes ownership of the data; the LLC copy (if any)
			// is dropped without a write-back.
			e.meta = Meta{Sharers: Bitset(0).Set(core), Dirty: true}
		} else {
			// Victim-cache promotion: serving a read out of the LLC drops the
			// data slot (dirty data goes back to memory first); the entry
			// stays in place, now data-less.
			if e.meta.HasData && e.meta.Dirty {
				s.buf.Emit(Action{Kind: WritebackMem, Line: line, Reason: ReasonCoherence})
			}
			e.meta.HasData = false
			e.meta.Dirty = false
			e.meta.Sharers = e.meta.Sharers.Set(core)
		}
		res.Actions = s.buf.Actions()
		return res
	}
	s.stat.MemFetches++
	s.insert(line, Meta{Sharers: Bitset(0).Set(core), Dirty: write})
	return MissResult{
		Where:     WhereNone,
		Source:    SourceMemory,
		Exclusive: !write,
		Actions:   s.buf.Actions(),
	}
}

// Upgrade implements Slice.
func (s *SkewedSlice) Upgrade(core int, line addr.Line) []Action {
	s.buf.Reset()
	e := s.find(line)
	if e == nil {
		panic("directory: upgrade for a line with no directory entry")
	}
	e.meta.Sharers.ForEach(func(c int) {
		if c != core {
			s.buf.Emit(Action{Kind: InvalidateL2, Core: c, Line: line, Reason: ReasonCoherence})
		}
	})
	e.meta = Meta{Sharers: Bitset(0).Set(core), Dirty: true}
	return s.buf.Actions()
}

// L2Evict implements Slice: the evicted line is written into the LLC as a
// victim, so the entry gains HasData in place — no migration, hence no
// attacker-observable movement either.
func (s *SkewedSlice) L2Evict(core int, line addr.Line, dirty bool) []Action {
	e := s.find(line)
	if e == nil {
		panic("directory: L2 evict for a line with no directory entry")
	}
	if !e.meta.Sharers.Has(core) {
		panic("directory: L2 evict by a non-sharer (skewed)")
	}
	e.meta.Sharers = e.meta.Sharers.Clear(core)
	e.meta.HasData = true
	e.meta.Dirty = e.meta.Dirty || dirty
	return nil
}

// Find implements Slice.
func (s *SkewedSlice) Find(line addr.Line) (Meta, Where, bool) {
	if e := s.find(line); e != nil {
		if e.meta.HasData {
			return e.meta, WhereTD, true
		}
		return e.meta, WhereED, true
	}
	return Meta{}, WhereNone, false
}

// Stats implements Slice.
func (s *SkewedSlice) Stats() *Stats { return &s.stat }

// ForEach calls fn for every entry in the slice until fn returns false
// (invariant checks and conformance tests).
func (s *SkewedSlice) ForEach(fn func(line addr.Line, m Meta, w Where) bool) {
	for i := range s.arr {
		if !s.arr[i].valid {
			continue
		}
		where := WhereED
		if s.arr[i].meta.HasData {
			where = WhereTD
		}
		if !fn(s.arr[i].line, s.arr[i].meta, where) {
			return
		}
	}
}
