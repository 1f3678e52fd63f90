package directory

import (
	"encoding/binary"

	"secdir/internal/addr"
)

// This file holds the canonical state encodings behind Slice.AppendState.
// Each one writes every array slot, generator word, key, pointer and counter
// of its structure, so two slices that will behave identically from here on
// give equal bytes. They are test oracles (reset ≡ fresh construction) and
// never run on the access path.

// appendWords appends each value to b, little-endian.
func appendWords(b []byte, vs ...uint64) []byte {
	for _, v := range vs {
		b = binary.LittleEndian.AppendUint64(b, v)
	}
	return b
}

// bit encodes a flag as a state word.
func bit(v bool) uint64 {
	if v {
		return 1
	}
	return 0
}

// appendEntry appends one directory slot: tag, Valid bit and metadata.
func appendEntry(b []byte, l addr.Line, valid bool, m Meta) []byte {
	return appendWords(b, uint64(l), bit(valid), uint64(m.Sharers), bit(m.Dirty), bit(m.HasData))
}

// appendState appends every counter.
func (s *Stats) appendState(b []byte) []byte {
	return appendWords(b, s.EDHits, s.TDHits, s.VDHits, s.MemFetches,
		s.EDToTD, s.TDToED, s.TDDrop, s.TDToVD, s.VDToTD, s.VDDrop,
		s.InclusionVictims, s.VDLookups, s.VDLookupsNoEB)
}

// appendState appends the pending actions (their count, then each one); the
// buffer's capacity is storage, not state.
func (a *ActionBuf) appendState(b []byte) []byte {
	b = appendWords(b, uint64(len(a.acts)))
	for _, x := range a.acts {
		b = appendWords(b, uint64(x.Kind), uint64(x.Core), uint64(x.Line), uint64(x.Reason))
	}
	return b
}

// AppendState appends the canonical state of the TD and ED (every slot and
// their generators), the pending actions, the Appendix-A mode and the
// counters. The TDVictim hook is wiring, not state.
func (d *TDED) AppendState(b []byte) []byte {
	b = d.ED.AppendState(b)
	b = d.TD.AppendState(b)
	b = d.Buf.appendState(b)
	b = appendWords(b, bit(d.AppendixAFix))
	return d.Stat.appendState(b)
}

// AppendState implements Slice.
func (s *BaselineSlice) AppendState(b []byte) []byte { return s.d.AppendState(b) }

// AppendState implements Slice: the index key, the re-key generator and
// cadence, and the live inner slice.
func (s *RandMapSlice) AppendState(b []byte) []byte {
	b = appendWords(b, uint64(s.sets), s.inner.key, s.rng.State(), uint64(s.rekeyEvery), uint64(s.ops), s.Rekeys)
	return s.inner.AppendState(b)
}

// AppendState implements Slice: both epoch keys, the remap pointer and step,
// the key generator, the remap cadence and counters, and the inner slice.
// The relocation scratch buffer only stages entries within one Housekeep.
func (s *CeaserSlice) AppendState(b []byte) []byte {
	b = appendWords(b, uint64(s.sets), s.mask, s.keyCur, s.keyNext, uint64(s.ptr), s.rng.State(),
		uint64(s.rekeyEvery), uint64(s.remapStep), uint64(s.ops), s.Epochs, s.Relocated)
	return s.inner.AppendState(b)
}

// AppendState implements Slice: the GF key schedule, every slot, the
// conflict generator, the pending actions and the counters.
func (s *SkewedSlice) AppendState(b []byte) []byte {
	b = appendWords(b, uint64(s.sets), uint64(s.ways), s.rng.State())
	b = s.gf.AppendState(b)
	for i := range s.arr {
		b = appendEntry(b, s.arr[i].line, s.arr[i].valid, s.arr[i].meta)
	}
	b = s.buf.appendState(b)
	return s.stat.appendState(b)
}

// AppendState implements Slice.
func (s *DLSSlice) AppendState(b []byte) []byte {
	b = s.tags.AppendState(b)
	b = s.buf.appendState(b)
	return s.stat.appendState(b)
}

// AppendState implements Slice: every core's partition, the pending actions
// and the counters.
func (s *TagPartSlice) AppendState(b []byte) []byte {
	b = appendWords(b, uint64(s.cores))
	for _, p := range s.parts {
		b = p.AppendState(b)
	}
	b = s.buf.appendState(b)
	return s.stat.appendState(b)
}

// AppendState implements Slice.
func (s *WayPartSlice) AppendState(b []byte) []byte {
	b = s.ed.appendState(b)
	b = s.td.appendState(b)
	b = s.buf.appendState(b)
	return s.stat.appendState(b)
}

// appendState appends the table's geometry, generator and every slot. The
// way ranges are derived from the geometry.
func (t *partTable) appendState(b []byte) []byte {
	b = appendWords(b, uint64(t.sets), uint64(t.ways), uint64(t.cores), t.rng.State())
	for i := range t.arr {
		b = appendEntry(b, t.arr[i].line, t.arr[i].valid, t.arr[i].meta)
	}
	return b
}
