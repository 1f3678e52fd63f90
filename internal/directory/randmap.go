package directory

import (
	"secdir/internal/addr"
	"secdir/internal/cachesim"
	"secdir/internal/rng"
)

// RandMapSlice is the §11 randomization-based alternative (CEASER/RPcache
// style): the directory set index is a keyed pseudo-random permutation of the
// line address, re-keyed periodically. An attacker cannot compute which
// addresses conflict with the victim's, so *targeted* eviction sets fail —
// but, as the paper argues, randomization "can only reduce the bandwidth of
// the attack, instead of eliminating it": flooding enough lines across many
// sets still evicts the victim's entries (see attack.FloodReload).
//
// Re-keying is modeled as a bulk remap: all live entries are re-inserted
// under the new key; entries that conflict during the remap are disposed of
// through the normal TD-victim path. (Real CEASER relocates gradually; the
// bulk model keeps the same security semantics at a coarser performance
// granularity.)
type RandMapSlice struct {
	// inner is the live slice, indexed under inner.key. spare is the slice
	// the next re-key fills (nil until the first one): the two swap roles on
	// every re-key, so re-keying reuses storage instead of allocating.
	inner, spare *keyedSlice
	sets         int
	rng          rng.Rand

	// rekeyEvery is the number of directory operations between re-keys;
	// 0 disables re-keying.
	rekeyEvery int
	ops        int

	// Rekeys counts completed re-key events.
	Rekeys uint64

	params RandMapParams
}

// keyedSlice is a baseline slice whose set index is the keyed mix of key,
// read through the slice on every probe, so pointing it at a new key is a
// field write.
type keyedSlice struct {
	*BaselineSlice
	key uint64
}

// Verify interface conformance.
var _ Slice = (*RandMapSlice)(nil)

// RandMapParams configures a RandMapSlice.
type RandMapParams struct {
	TDSets, TDWays int
	EDSets, EDWays int
	// RekeyEvery is the number of slice operations between re-keys
	// (0 = never re-key).
	RekeyEvery int
	Seed       int64
}

// NewRandMapped returns a randomized-index directory slice.
func NewRandMapped(p RandMapParams) *RandMapSlice {
	s := &RandMapSlice{
		sets:       p.TDSets,
		rekeyEvery: p.RekeyEvery,
		params:     p,
	}
	s.inner = s.newKeyed()
	s.Reset(p.Seed)
	return s
}

// mixLine is the keyed xor-multiply set-index mix shared by RandMapSlice and
// CeaserSlice (not cryptographic, but the attacker model grants no key
// access either way). The mix is genuinely data-dependent, so the randomized
// slice kinds are the ones that keep the FuncIndex closure path.
func mixLine(key uint64, l addr.Line, mask uint64) int {
	v := uint64(l) ^ key
	v *= 0xff51afd7ed558ccd
	v ^= v >> 33
	v *= 0xc4ceb9fe1a85ec53
	v ^= v >> 29
	return int(v & mask)
}

// newKeyed allocates an empty inner slice whose index reads its own key.
func (s *RandMapSlice) newKeyed() *keyedSlice {
	k := &keyedSlice{}
	mask := uint64(s.sets - 1)
	k.BaselineSlice = NewBaseline(BaselineParams{
		TDSets: s.params.TDSets, TDWays: s.params.TDWays,
		EDSets: s.params.EDSets, EDWays: s.params.EDWays,
		Index: cachesim.FuncIndex(func(l addr.Line) int {
			return mixLine(k.key, l, mask)
		}),
		AppendixAFix: true, // give the randomized design its best case
		Seed:         s.params.Seed,
	})
	return k
}

// Reset implements Slice: the key generator is reseeded, the first key drawn
// and the live inner slice emptied. The spare keeps its stale contents; the
// next re-key resets it before use.
func (s *RandMapSlice) Reset(seed int64) {
	s.params.Seed = seed
	s.rng = rng.New(seed ^ 0x5EC0DE)
	s.inner.key = s.rng.Uint64()
	s.inner.Reset(seed)
	s.ops = 0
	s.Rekeys = 0
}

// Housekeep implements Housekeeper: the engine calls it at transaction
// boundaries (never mid-transition, where remap invalidations could race the
// fill in flight) and applies the disposal actions of entries that conflicted
// during the remap.
func (s *RandMapSlice) Housekeep() []Action {
	if s.rekeyEvery <= 0 || s.ops < s.rekeyEvery {
		return nil
	}
	s.ops = 0
	s.Rekeys++
	if s.spare == nil {
		s.spare = s.newKeyed()
	}
	old, fresh := s.inner, s.spare
	fresh.key = s.rng.Uint64()
	// The spare starts from the state a freshly built slice would have,
	// carrying the statistics across the swap.
	fresh.Reset(s.params.Seed)
	fresh.d.Stat = old.d.Stat

	// The fresh slice's buffer accumulates the disposal actions of every
	// entry that conflicts during the remap.
	old.d.ED.Range(func(l addr.Line, m *Meta) bool {
		fresh.d.InsertED(l, *m)
		return true
	})
	old.d.TD.Range(func(l addr.Line, m *Meta) bool {
		fresh.d.InsertTD(l, *m)
		return true
	})
	s.inner, s.spare = fresh, old
	return fresh.d.Buf.Actions()
}

// Miss implements Slice.
func (s *RandMapSlice) Miss(core int, line addr.Line, write bool) MissResult {
	s.ops++
	return s.inner.Miss(core, line, write)
}

// Upgrade implements Slice.
func (s *RandMapSlice) Upgrade(core int, line addr.Line) []Action {
	s.ops++
	return s.inner.Upgrade(core, line)
}

// L2Evict implements Slice.
func (s *RandMapSlice) L2Evict(core int, line addr.Line, dirty bool) []Action {
	s.ops++
	return s.inner.L2Evict(core, line, dirty)
}

// Find implements Slice.
func (s *RandMapSlice) Find(line addr.Line) (Meta, Where, bool) {
	return s.inner.Find(line)
}

// Stats implements Slice.
func (s *RandMapSlice) Stats() *Stats { return s.inner.Stats() }

// TDED exposes the current inner structures (tests only; invalidated by the
// next re-key).
func (s *RandMapSlice) TDED() *TDED { return s.inner.TDED() }

// RekeyCount returns the number of completed re-key events.
func (s *RandMapSlice) RekeyCount() uint64 { return s.Rekeys }
