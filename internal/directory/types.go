// Package directory defines the coherence-directory model shared by the
// baseline (Skylake-X-style) design and SecDir: the entry format, the
// Traditional Directory (TD) coupled to the LLC slice, the Extended Directory
// (ED), and the baseline directory slice of Figure 2(a)/3(a) of the paper.
//
// A directory slice is the single source of truth for entry placement. Every
// mutating operation returns a list of Actions (cache invalidations, memory
// write-backs) that the coherence engine applies, which makes each transition
// of Table 2 testable in isolation.
package directory

import (
	"fmt"
	"math/bits"

	"secdir/internal/addr"
)

// Bitset is a presence bit vector over cores ("full-mapped" encoding, §7).
// Its 64 bits cap the simulated machine at config.MaxCores; larger machines
// are analysed analytically in internal/area.
type Bitset uint64

// Set returns the bitset with core's bit set.
func (b Bitset) Set(core int) Bitset { return b | 1<<uint(core) }

// Clear returns the bitset with core's bit cleared.
func (b Bitset) Clear(core int) Bitset { return b &^ (1 << uint(core)) }

// Has reports whether core's bit is set.
func (b Bitset) Has(core int) bool { return b&(1<<uint(core)) != 0 }

// Count returns the number of sharers.
func (b Bitset) Count() int { return bits.OnesCount64(uint64(b)) }

// First returns the lowest-numbered sharer, or -1 if empty.
func (b Bitset) First() int {
	if b == 0 {
		return -1
	}
	return bits.TrailingZeros64(uint64(b))
}

// ForEach calls fn for every set core in ascending order.
func (b Bitset) ForEach(fn func(core int)) {
	for v := uint64(b); v != 0; v &= v - 1 {
		fn(bits.TrailingZeros64(v))
	}
}

// Meta is the coherence metadata of a directory entry. The line address is
// the entry's tag and is kept by the containing structure.
type Meta struct {
	// Sharers is the presence bit vector: which cores' private caches hold
	// the line.
	Sharers Bitset
	// Dirty means the tracked copy (LLC copy for TD entries, a private copy
	// for ED entries) differs from memory.
	Dirty bool
	// HasData means the LLC slice holds the line's data. Only meaningful in
	// the TD, whose entries own LLC slots. With the Appendix-A fix a TD
	// entry may exist with HasData == false.
	HasData bool
}

// Where identifies the structure holding a directory entry. The underlying
// type is a byte so it packs tightly in MissResult, which the hot path
// returns by value.
type Where uint8

const (
	// WhereNone means no directory structure holds an entry for the line.
	WhereNone Where = iota
	// WhereED means the entry is in the Extended Directory.
	WhereED
	// WhereTD means the entry is in the Traditional Directory.
	WhereTD
	// WhereVD means the entry lives in one or more Victim Directory banks.
	WhereVD
)

// String implements fmt.Stringer.
func (w Where) String() string {
	switch w {
	case WhereNone:
		return "none"
	case WhereED:
		return "ED"
	case WhereTD:
		return "TD"
	case WhereVD:
		return "VD"
	default:
		return fmt.Sprintf("Where(%d)", int(w))
	}
}

// ActionKind identifies a side effect the coherence engine must apply.
type ActionKind int

const (
	// InvalidateL2 removes the line from the core's private L1/L2. If the
	// private copy is dirty and the Reason is a conflict (not a coherence
	// invalidation whose requester takes ownership of the data), the engine
	// writes the line back to main memory.
	InvalidateL2 ActionKind = iota
	// WritebackMem records that the LLC's dirty copy of the line was
	// written back to main memory (the data slot is then dropped).
	WritebackMem
)

// Reason explains why an Action was generated; the security evaluation keys
// off it (an attacker-forced cross-core InvalidateL2 with a conflict reason
// is an inclusion victim).
type Reason int

const (
	// ReasonCoherence: a write required invalidating other sharers. The
	// requester takes ownership of the (possibly dirty) data.
	ReasonCoherence Reason = iota
	// ReasonTDConflict: a TD set conflict discarded the entry (transition ②
	// of the traditional directory) — the attack lever of §2.3.
	ReasonTDConflict
	// ReasonEDConflict: the unfixed Skylake-X behaviour of Appendix A — an
	// ED→TD migration invalidated an exclusively-held private copy.
	ReasonEDConflict
	// ReasonVDConflict: a cuckoo conflict in the owner's own VD bank
	// (transition ⑤) — a self-conflict, safe under the threat model.
	ReasonVDConflict
)

// String implements fmt.Stringer.
func (r Reason) String() string {
	switch r {
	case ReasonCoherence:
		return "coherence"
	case ReasonTDConflict:
		return "td-conflict"
	case ReasonEDConflict:
		return "ed-conflict"
	case ReasonVDConflict:
		return "vd-conflict"
	default:
		return fmt.Sprintf("Reason(%d)", int(r))
	}
}

// Action is a side effect of a directory transition.
type Action struct {
	Kind   ActionKind
	Core   int // target core for InvalidateL2
	Line   addr.Line
	Reason Reason
}

// ActionBuf accumulates the side effects of one directory transition into a
// reusable buffer. Every slice implementation owns one: the top-level
// operations (Miss, Upgrade, L2Evict, Housekeep) truncate it on entry and the
// internal migration helpers only append, so the steady-state access path
// performs no allocations — the buffer grows to the longest transition chain
// ever seen and is reused thereafter.
//
// Aliasing contract: the slices returned through MissResult.Actions and by
// Upgrade, L2Evict and Housekeep alias this buffer, so they are valid only
// until the next mutating call on the same slice. Callers must apply or copy
// the actions before issuing that call (the coherence engine applies them
// immediately).
type ActionBuf struct {
	acts []Action
}

// Reset truncates the buffer, keeping its capacity for reuse.
func (b *ActionBuf) Reset() { b.acts = b.acts[:0] }

// Emit appends one action.
func (b *ActionBuf) Emit(a Action) { b.acts = append(b.acts, a) }

// Len returns the number of accumulated actions.
func (b *ActionBuf) Len() int { return len(b.acts) }

// Actions returns the accumulated actions, or nil if there are none. The
// returned slice aliases the buffer and is invalidated by the next Reset.
func (b *ActionBuf) Actions() []Action {
	if len(b.acts) == 0 {
		return nil
	}
	return b.acts
}

// Grow ensures the buffer can hold at least n actions without reallocating.
func (b *ActionBuf) Grow(n int) {
	if cap(b.acts) < n {
		acts := make([]Action, len(b.acts), n)
		copy(acts, b.acts)
		b.acts = acts
	}
}

// Source identifies where the data for a miss is supplied from. Byte-sized
// for the same packing reason as Where.
type Source uint8

const (
	// SourceMemory: the line is fetched from DRAM.
	SourceMemory Source = iota
	// SourceLLC: the LLC slice supplies the line.
	SourceLLC
	// SourceRemoteL2: another core's private cache forwards the line.
	SourceRemoteL2
)

// String implements fmt.Stringer.
func (s Source) String() string {
	switch s {
	case SourceMemory:
		return "memory"
	case SourceLLC:
		return "llc"
	case SourceRemoteL2:
		return "remote-l2"
	default:
		return fmt.Sprintf("Source(%d)", int(s))
	}
}

// MissResult is the directory's answer to an L2 miss. It is returned by
// value on every simulated L2 miss, so the layout is packed: narrow integer
// fields keep the whole struct at 40 bytes (slice header + one word),
// cheap to copy without a runtime block-copy call.
type MissResult struct {
	// Actions to apply.
	Actions []Action
	// SrcCore is the forwarding core when Source == SourceRemoteL2.
	SrcCore int32
	// Where the entry was found; WhereNone means a memory fetch allocated a
	// fresh entry (transition ①).
	Where Where
	// Source of the data.
	Source Source
	// VDBanksProbed is the number of VD bank arrays actually read; with the
	// Empty Bit this can be less than the number of banks, down to zero.
	VDBanksProbed uint8
	// Exclusive reports that the requester may install the line in the
	// Exclusive state (memory fetch, no other sharers).
	Exclusive bool
	// NoFill tells the engine to serve the access without installing the
	// line in the requester's private caches: the requester's VD entry
	// could not be allocated (its cuckoo chain displaced the new entry),
	// and a cached line must never lack a directory entry.
	NoFill bool
	// VDConsulted reports that the Victim Directories were looked up
	// (SecDir only: the ED and TD missed).
	VDConsulted bool
}

// Stats counts per-slice directory events. Field names follow the paper's
// transition numbers (Figure 3, Table 2).
type Stats struct {
	EDHits     uint64 // L2 misses satisfied by an ED entry
	TDHits     uint64 // L2 misses satisfied by a TD entry
	VDHits     uint64 // L2 misses satisfied by a VD entry (SecDir)
	MemFetches uint64 // L2 misses that went to DRAM (transition ①)

	EDToTD uint64 // ED victim migrated to TD
	TDToED uint64 // write promoted a TD entry to ED
	TDDrop uint64 // transition ②: TD conflict discarded an entry
	TDToVD uint64 // transition ③: TD conflict migrated the entry to VDs
	VDToTD uint64 // transition ④: L2 eviction consolidated VD entries into TD
	VDDrop uint64 // transition ⑤: VD self-conflict evicted an entry

	InclusionVictims uint64 // cross-structure invalidations of live private copies

	VDLookups     uint64 // VD bank arrays probed (with EB filtering if enabled)
	VDLookupsNoEB uint64 // VD bank probes a design without EB would perform
}

// Add accumulates other into s.
func (s *Stats) Add(o Stats) {
	s.EDHits += o.EDHits
	s.TDHits += o.TDHits
	s.VDHits += o.VDHits
	s.MemFetches += o.MemFetches
	s.EDToTD += o.EDToTD
	s.TDToED += o.TDToED
	s.TDDrop += o.TDDrop
	s.TDToVD += o.TDToVD
	s.VDToTD += o.VDToTD
	s.VDDrop += o.VDDrop
	s.InclusionVictims += o.InclusionVictims
	s.VDLookups += o.VDLookups
	s.VDLookupsNoEB += o.VDLookupsNoEB
}

// Sub subtracts other from s: the activity between two snapshots.
func (s *Stats) Sub(o Stats) {
	s.EDHits -= o.EDHits
	s.TDHits -= o.TDHits
	s.VDHits -= o.VDHits
	s.MemFetches -= o.MemFetches
	s.EDToTD -= o.EDToTD
	s.TDToED -= o.TDToED
	s.TDDrop -= o.TDDrop
	s.TDToVD -= o.TDToVD
	s.VDToTD -= o.VDToTD
	s.VDDrop -= o.VDDrop
	s.InclusionVictims -= o.InclusionVictims
	s.VDLookups -= o.VDLookups
	s.VDLookupsNoEB -= o.VDLookupsNoEB
}

// Housekeeper is implemented by slices that need periodic maintenance the
// engine must run at transaction boundaries (e.g. the randomized design's
// re-keying): mid-transition maintenance could invalidate the very line a
// fill has in flight.
type Housekeeper interface {
	// Housekeep performs pending maintenance and returns its side effects.
	Housekeep() []Action
}

// Slice is one directory slice. Implementations: Baseline, RandMapped,
// WayPartitioned, Skewed, DLS, TagPartitioned and Ceaser (this package) and
// SecDir (internal/core).
//
// Every action slice an implementation returns (MissResult.Actions, Upgrade,
// L2Evict, Housekeep) aliases the implementation's reusable ActionBuf and is
// valid only until the next mutating call on the same slice; see ActionBuf.
type Slice interface {
	// Miss handles an L2 miss by the core (GetS when write == false, GetX
	// when true). The requester must not already be a sharer.
	Miss(core int, line addr.Line, write bool) MissResult

	// Upgrade handles a write hit on a Shared private copy: all other
	// sharers are invalidated and the entry follows the write rules
	// (TD entries migrate to ED).
	Upgrade(core int, line addr.Line) []Action

	// L2Evict tells the directory that the core evicted the line from its
	// private L2 (writing it into the LLC as a victim, unless the shared
	// ED/TD are disabled). dirty reports whether the evicted copy was
	// modified.
	L2Evict(core int, line addr.Line, dirty bool) []Action

	// Find locates the entry for a line without mutating state.
	Find(line addr.Line) (Meta, Where, bool)

	// Stats returns the slice's counters.
	Stats() *Stats

	// Reset restores the slice, in place and without allocating, to exactly
	// the state its constructor builds from the same parameters and this
	// seed: slots, generators, keys, pointers, counters and the action
	// buffer. Its cost scales with what the slice touched since the last
	// Reset, not with its capacity.
	Reset(seed int64)

	// AppendState appends a canonical encoding of the slice's whole state
	// to b: equal bytes mean the slices behave identically from here on. It
	// is a test oracle and never runs on the access path.
	AppendState(b []byte) []byte
}
