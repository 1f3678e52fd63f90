package directory

import (
	"fmt"

	"secdir/internal/addr"
	"secdir/internal/cachesim"
)

// TagPartSlice is the tag-partitioned / data-shared isolation design (after
// Ramkrishnan et al., "New attacks and defenses for randomized caches" /
// composable-partitioning line of work): every core owns a private tag
// partition that tracks exactly the lines in that core's L2, while data stays
// shared. A miss broadcasts over all partitions to find sharers (write-shared
// coherence); fills and the conflicts they cause stay strictly inside the
// requester's own partition, so a core can never displace another core's
// tracking state — cross-core conflict invalidations are impossible by
// construction.
//
// The price is capacity: each partition gets 1/N of the tag budget, so a
// partition conflict self-invalidates one of the core's own cached lines
// long before the L2 is full. Secure like way-partitioning, and like it the
// design trades effective associativity for isolation — the leaderboard's
// sim_ns_access column shows the bill.
//
// A partition entry needs no sharer vector and no data bit (the partition
// index IS the sharer, data lives wherever the protocol put it), which is
// the design's storage win: tag + valid per entry.
type TagPartSlice struct {
	cores int
	parts []*cachesim.Cache[struct{}]

	// buf is the reusable action accumulator; see ActionBuf for the aliasing
	// contract the Slice methods inherit.
	buf  ActionBuf
	stat Stats
}

// Verify interface conformance.
var _ Slice = (*TagPartSlice)(nil)

// TagPartParams configures a TagPartSlice. Sets×Ways is the whole slice's
// tag budget; each core's partition gets Ways/Cores ways (minimum 1).
type TagPartParams struct {
	Cores      int
	Sets, Ways int
	Index      cachesim.Index
	Seed       int64
}

// NewTagPartitioned returns an empty tag-partitioned slice.
func NewTagPartitioned(p TagPartParams) (*TagPartSlice, error) {
	if p.Cores <= 0 {
		return nil, fmt.Errorf("directory: tag partitioning needs at least one core, got %d", p.Cores)
	}
	waysPer := p.Ways / p.Cores
	if waysPer < 1 {
		waysPer = 1
	}
	s := &TagPartSlice{cores: p.Cores}
	for c := 0; c < p.Cores; c++ {
		s.parts = append(s.parts, cachesim.New[struct{}](p.Sets, waysPer, p.Index, cachesim.LRU, partSeed(p.Seed, c)))
	}
	s.buf.Grow(tdedBufCap)
	return s, nil
}

// partSeed is core c's partition seed.
func partSeed(seed int64, c int) int64 { return seed + int64(c)*13 }

// Reset implements Slice.
func (s *TagPartSlice) Reset(seed int64) {
	for c, p := range s.parts {
		p.Reset(partSeed(seed, c))
	}
	s.buf.Reset()
	s.stat = Stats{}
}

// sharers returns the set of cores whose partitions track the line.
func (s *TagPartSlice) sharers(line addr.Line) Bitset {
	var b Bitset
	for c := 0; c < s.cores; c++ {
		if _, ok := s.parts[c].Probe(line); ok {
			b = b.Set(c)
		}
	}
	return b
}

// insert places the line's tag in the core's own partition; a partition
// conflict self-invalidates the core's displaced line (the engine writes a
// dirty private copy back to memory). This is the design's only conflict
// path, and it never crosses cores.
func (s *TagPartSlice) insert(core int, line addr.Line) {
	v, evicted := s.parts[core].Put(line, struct{}{})
	if !evicted {
		return
	}
	s.buf.Emit(Action{Kind: InvalidateL2, Core: core, Line: v.Line, Reason: ReasonTDConflict})
	s.stat.TDDrop++
	s.stat.InclusionVictims++
}

// Miss implements Slice.
func (s *TagPartSlice) Miss(core int, line addr.Line, write bool) MissResult {
	s.buf.Reset()
	sh := s.sharers(line)
	res := MissResult{}
	if sh != 0 {
		s.stat.EDHits++
		res.Where = WhereED
		res.Source = SourceRemoteL2
		res.SrcCore = int32(sh.First())
		if write {
			sh.ForEach(func(c int) {
				s.parts[c].Remove(line)
				s.buf.Emit(Action{Kind: InvalidateL2, Core: c, Line: line, Reason: ReasonCoherence})
			})
		}
	} else {
		s.stat.MemFetches++
		res.Where = WhereNone
		res.Source = SourceMemory
		res.Exclusive = !write
	}
	s.insert(core, line)
	res.Actions = s.buf.Actions()
	return res
}

// Upgrade implements Slice.
func (s *TagPartSlice) Upgrade(core int, line addr.Line) []Action {
	s.buf.Reset()
	if _, ok := s.parts[core].Probe(line); !ok {
		panic("directory: upgrade for a line with no partition tag")
	}
	s.sharers(line).ForEach(func(c int) {
		if c != core {
			s.parts[c].Remove(line)
			s.buf.Emit(Action{Kind: InvalidateL2, Core: c, Line: line, Reason: ReasonCoherence})
		}
	})
	return s.buf.Actions()
}

// L2Evict implements Slice: the partition mirrors the core's L2, so the tag
// simply leaves with the line. With no victim LLC in this design, a dirty
// copy goes straight back to memory.
func (s *TagPartSlice) L2Evict(core int, line addr.Line, dirty bool) []Action {
	s.buf.Reset()
	if _, ok := s.parts[core].Remove(line); !ok {
		panic("directory: L2 evict for a line with no partition tag")
	}
	if dirty {
		s.buf.Emit(Action{Kind: WritebackMem, Line: line, Reason: ReasonCoherence})
	}
	return s.buf.Actions()
}

// Find implements Slice: the merged view over all partitions.
func (s *TagPartSlice) Find(line addr.Line) (Meta, Where, bool) {
	sh := s.sharers(line)
	if sh == 0 {
		return Meta{}, WhereNone, false
	}
	return Meta{Sharers: sh}, WhereED, true
}

// Stats implements Slice.
func (s *TagPartSlice) Stats() *Stats { return &s.stat }

// ForEach calls fn once per tracked line with the merged sharer set, until
// fn returns false (invariant checks and conformance tests). A line shared
// by k cores has k partition tags; it is reported from the lowest-numbered
// sharer's partition only.
func (s *TagPartSlice) ForEach(fn func(line addr.Line, m Meta, w Where) bool) {
	stop := false
	for c := 0; c < s.cores && !stop; c++ {
		cc := c
		s.parts[cc].Range(func(l addr.Line, _ *struct{}) bool {
			sh := s.sharers(l)
			if sh.First() != cc {
				return true // a lower-numbered sharer reports this line
			}
			if !fn(l, Meta{Sharers: sh}, WhereED) {
				stop = true
				return false
			}
			return true
		})
	}
}
