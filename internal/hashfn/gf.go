package hashfn

import (
	"encoding/binary"

	"secdir/internal/rng"
)

// GFHash is the per-way index family of a SEED-style linearly-skewed
// directory (Constable & Unterluggauer, "Seeds of SEED"): way w of a
// 2^n-set table is indexed by the affine map over GF(2^n)
//
//	idx_w(A) = α_w · fold(A)  ⊕  β_w
//
// where fold XOR-folds the line address into an n-bit field element, α_w is
// a secret nonzero field multiplier and β_w a secret additive mask, both
// drawn from a seeded PRNG at construction. Multiplication by a nonzero
// element of GF(2^n) is a bijection, so each way's index is an invertible
// linear transform of the folded address — every way sees a different, full-
// rank scrambling of the set space, and without the (α, β) key material an
// attacker cannot compute which addresses co-index in any way, let alone in
// all of them at once.
//
// The per-way maps are precomputed into two 256-entry lookup tables (low and
// high folded byte), so an Index call is two loads and two XORs — no field
// arithmetic on the hot path.
type GFHash struct {
	n    int
	sets int
	poly uint32
	// alpha[w] / beta[w] are way w's multiplier and additive mask.
	alpha []uint32
	beta  []uint32
	// tabLo[w][b] = α_w · b and tabHi[w][b] = α_w · (b << 8), folded-byte
	// lookup tables; β_w is already mixed into tabLo.
	tabLo [][256]uint16
	tabHi [][256]uint16
}

// gfPolys[n] is an irreducible polynomial of degree n over GF(2) (bit n set),
// for every set-index width the simulator can meet (2..65536 sets). The unit
// tests verify irreducibility programmatically (Rabin's test), so a wrong
// entry cannot survive unnoticed.
var gfPolys = [17]uint32{
	0,       // n=0: degenerate single-set table, unused
	0x3,     // x + 1
	0x7,     // x^2 + x + 1
	0xB,     // x^3 + x + 1
	0x13,    // x^4 + x + 1
	0x25,    // x^5 + x^2 + 1
	0x43,    // x^6 + x + 1
	0x83,    // x^7 + x + 1
	0x11B,   // x^8 + x^4 + x^3 + x + 1
	0x211,   // x^9 + x^4 + 1
	0x409,   // x^10 + x^3 + 1
	0x805,   // x^11 + x^2 + 1
	0x1053,  // x^12 + x^6 + x^4 + x + 1
	0x201B,  // x^13 + x^4 + x^3 + x + 1
	0x4443,  // x^14 + x^10 + x^6 + x + 1
	0x8003,  // x^15 + x + 1
	0x1100B, // x^16 + x^12 + x^3 + x + 1
}

// NewGFHash returns the index family for a table with the given power-of-two
// set count and way count, keyed by seed.
func NewGFHash(sets, ways int, seed int64) *GFHash {
	if sets <= 0 || sets&(sets-1) != 0 {
		panic("hashfn: set count must be a positive power of two")
	}
	if sets > 1<<16 {
		panic("hashfn: GF hash supports at most 2^16 sets")
	}
	n := 0
	for 1<<n < sets {
		n++
	}
	g := &GFHash{
		n: n, sets: sets, poly: gfPolys[n],
		alpha: make([]uint32, ways),
		beta:  make([]uint32, ways),
		tabLo: make([][256]uint16, ways),
		tabHi: make([][256]uint16, ways),
	}
	g.Rekey(seed)
	return g
}

// Rekey redraws every way's (α, β) from seed and refills the lookup tables in
// place, leaving g equal to NewGFHash(g.Sets(), g.Ways(), seed) without
// allocating. A table is linear over GF(2) in its byte index (β aside), so
// each is built from its 8 basis products α·x^k, themselves one doubling
// apart: the entry for b is the entry for b without its top bit XOR that
// bit's product. No field multiplication runs.
func (g *GFHash) Rekey(seed int64) {
	mask := uint32(g.sets - 1)
	r := rng.New(seed ^ 0x6F2A11)
	for w := range g.alpha {
		g.alpha[w], g.beta[w] = 0, 0
		if g.n > 0 {
			for g.alpha[w] == 0 {
				g.alpha[w] = uint32(r.Uint64()) & mask
			}
			g.beta[w] = uint32(r.Uint64()) & mask
		}
		// basis[k] = α·x^k for each bit k of a 16-bit folded index; bits at
		// or above the field width are masked off, so theirs stay 0.
		var basis [16]uint16
		p := g.alpha[w]
		for k := 0; k < g.n; k++ {
			basis[k] = uint16(p)
			p <<= 1
			if p&uint32(g.sets) != 0 {
				p ^= g.poly
			}
		}
		lo, hi := &g.tabLo[w], &g.tabHi[w]
		lo[0], hi[0] = uint16(g.beta[w]), 0
		for i := 0; i < 8; i++ {
			top := 1 << i
			for b := top; b < 2*top; b++ {
				lo[b] = lo[b-top] ^ basis[i]
				hi[b] = hi[b-top] ^ basis[i+8]
			}
		}
	}
}

// AppendState appends the whole key schedule to b: the field, every way's
// α and β, and both lookup tables, so equal encodings index identically.
func (g *GFHash) AppendState(b []byte) []byte {
	for _, v := range [...]uint32{uint32(g.n), uint32(g.sets), g.poly, uint32(len(g.alpha))} {
		b = binary.LittleEndian.AppendUint32(b, v)
	}
	for w := range g.alpha {
		b = binary.LittleEndian.AppendUint32(b, g.alpha[w])
		b = binary.LittleEndian.AppendUint32(b, g.beta[w])
		for i := range g.tabLo[w] {
			b = binary.LittleEndian.AppendUint16(b, g.tabLo[w][i])
			b = binary.LittleEndian.AppendUint16(b, g.tabHi[w][i])
		}
	}
	return b
}

// Sets returns the set count the indices map into.
func (g *GFHash) Sets() int { return g.sets }

// Ways returns the number of per-way index functions.
func (g *GFHash) Ways() int { return len(g.alpha) }

// Bits returns the field width n (sets == 2^n).
func (g *GFHash) Bits() int { return g.n }

// Poly returns the reduction polynomial of the field.
func (g *GFHash) Poly() uint32 { return g.poly }

// Alpha returns way w's multiplier (tests only; this is the secret key).
func (g *GFHash) Alpha(w int) uint32 { return g.alpha[w] }

// Fold XOR-folds a 64-bit line address into an n-bit field element. Folding
// is linear over GF(2), so the composed map address → index stays linear.
func (g *GFHash) Fold(v uint64) uint32 {
	if g.n == 0 {
		return 0
	}
	mask := uint64(g.sets - 1)
	var acc uint64
	for v != 0 {
		acc ^= v & mask
		v >>= uint(g.n)
	}
	return uint32(acc)
}

// Mul multiplies two field elements modulo the reduction polynomial
// (russian-peasant carry-less multiplication; tests use it as the
// definition the lookup tables must match — Index never calls it).
func (g *GFHash) Mul(a, b uint32) uint32 {
	if g.n == 0 {
		return 0
	}
	var r uint32
	high := uint32(1) << uint(g.n-1)
	mask := uint32(g.sets - 1)
	for b != 0 {
		if b&1 != 0 {
			r ^= a
		}
		b >>= 1
		hi := a&high != 0
		a <<= 1
		if hi {
			a ^= g.poly
		}
		a &= mask
	}
	return r & mask
}

// Index returns way w's set index for the line: α_w·fold(line) ⊕ β_w, via
// the precomputed byte tables.
func (g *GFHash) Index(w int, line uint64) int {
	f := g.Fold(line)
	return int(g.tabLo[w][f&0xff] ^ g.tabHi[w][(f>>8)&0xff])
}
