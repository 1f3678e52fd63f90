// Package dirtyset provides the one-bit-per-set bitmaps behind the
// simulator's O(touched) resets. A structure marks a set's bit whenever it
// turns one of the set's invalid slots valid; every valid slot then lies in a
// marked set, so a reset only has to clear the marked sets. Marking costs one
// OR per fill into an empty slot and nothing on probes or hits.
package dirtyset

import "math/bits"

// Bitmap holds one bit per set.
type Bitmap []uint64

// New returns a cleared bitmap over n sets.
func New(n int) Bitmap { return make(Bitmap, (n+63)/64) }

// Mark records that set i may hold valid slots.
func (b Bitmap) Mark(i int) { b[i>>6] |= 1 << uint(i&63) }

// Drain calls fn for every marked set in ascending order and clears the
// bitmap. The cost scales with the number of marked sets plus one word per
// 64 sets.
func (b Bitmap) Drain(fn func(set int)) {
	for w, word := range b {
		if word == 0 {
			continue
		}
		for ; word != 0; word &= word - 1 {
			fn(w<<6 | bits.TrailingZeros64(word))
		}
		b[w] = 0
	}
}
