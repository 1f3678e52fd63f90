package hashfn

import (
	"bytes"
	"math/rand"
	"testing"
)

// polyDeg returns the degree of a GF(2) polynomial (-1 for 0).
func polyDeg(p uint64) int {
	d := -1
	for p != 0 {
		d++
		p >>= 1
	}
	return d
}

// polyMod reduces a modulo p over GF(2).
func polyMod(a, p uint64) uint64 {
	dp := polyDeg(p)
	for polyDeg(a) >= dp {
		a ^= p << uint(polyDeg(a)-dp)
	}
	return a
}

// polyMulMod multiplies two GF(2) polynomials modulo p.
func polyMulMod(a, b, p uint64) uint64 {
	var r uint64
	for b != 0 {
		if b&1 != 0 {
			r ^= a
		}
		b >>= 1
		a <<= 1
	}
	return polyMod(r, p)
}

// polyGCD is Euclid's algorithm over GF(2)[x].
func polyGCD(a, b uint64) uint64 {
	for b != 0 {
		a, b = b, polyMod(a, b)
	}
	return a
}

// xPow2k returns x^(2^k) mod p by repeated squaring.
func xPow2k(k int, p uint64) uint64 {
	t := uint64(0b10) // x
	for i := 0; i < k; i++ {
		t = polyMulMod(t, t, p)
	}
	return t
}

// irreducible implements Rabin's irreducibility test for a degree-n
// polynomial over GF(2): x^(2^n) ≡ x (mod p), and for every prime divisor q
// of n, gcd(p, x^(2^(n/q)) − x) = 1.
func irreducible(p uint64, n int) bool {
	if polyDeg(p) != n {
		return false
	}
	if polyMod(xPow2k(n, p)^0b10, p) != 0 {
		return false
	}
	for q := 2; q <= n; q++ {
		if n%q != 0 || !isPrime(q) {
			continue
		}
		h := xPow2k(n/q, p) ^ 0b10
		if polyGCD(p, h) != 1 {
			return false
		}
	}
	return true
}

func isPrime(v int) bool {
	for d := 2; d*d <= v; d++ {
		if v%d == 0 {
			return false
		}
	}
	return v >= 2
}

// TestGFPolysIrreducible verifies every entry of the reduction-polynomial
// table with Rabin's test, so a bad constant cannot silently produce a
// non-field (and with it a non-invertible skew).
func TestGFPolysIrreducible(t *testing.T) {
	for n := 1; n <= 16; n++ {
		if !irreducible(uint64(gfPolys[n]), n) {
			t.Errorf("gfPolys[%d] = %#x is not irreducible", n, gfPolys[n])
		}
	}
}

// TestGFHashFullRank verifies each way's index map is invertible on the
// folded address space: the GF(2)-matrix whose columns are α_w·e_i has full
// rank n, for several table sizes.
func TestGFHashFullRank(t *testing.T) {
	for _, sets := range []int{2, 8, 64, 512, 2048, 1 << 16} {
		g := NewGFHash(sets, 8, 12345)
		n := g.Bits()
		for w := 0; w < g.Ways(); w++ {
			// Columns of the linear part (β only translates, never collapses).
			cols := make([]uint32, n)
			for i := 0; i < n; i++ {
				cols[i] = g.Mul(g.Alpha(w), 1<<uint(i))
			}
			// Gaussian elimination over GF(2).
			rank := 0
			for bit := 0; bit < n; bit++ {
				pivot := -1
				for j := rank; j < n; j++ {
					if cols[j]&(1<<uint(bit)) != 0 {
						pivot = j
						break
					}
				}
				if pivot < 0 {
					continue
				}
				cols[rank], cols[pivot] = cols[pivot], cols[rank]
				for j := 0; j < n; j++ {
					if j != rank && cols[j]&(1<<uint(bit)) != 0 {
						cols[j] ^= cols[rank]
					}
				}
				rank++
			}
			if rank != n {
				t.Errorf("sets=%d way %d: skew matrix rank %d, want %d (α=%#x)", sets, w, rank, n, g.Alpha(w))
			}
		}
	}
}

// TestGFHashTableMatchesField verifies the precomputed byte-table fast path
// against direct field arithmetic: Index(w, line) == α_w·fold(line) ⊕ β_w.
func TestGFHashTableMatchesField(t *testing.T) {
	g := NewGFHash(2048, 23, 7)
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 5000; i++ {
		line := r.Uint64() & (1<<34 - 1)
		w := r.Intn(g.Ways())
		want := int(g.Mul(g.Alpha(w), g.Fold(line)) ^ g.beta[w])
		if got := g.Index(w, line); got != want {
			t.Fatalf("Index(%d, %#x) = %d, field arithmetic gives %d", w, line, got, want)
		}
	}
}

// TestGFHashUniform bounds a chi-squared statistic on each way's set
// distribution under a fixed seed: random lines must spread evenly. With 256
// sets (df = 255) the 99.9th percentile is ≈ 330; the generous bound of 400
// only trips on a genuinely skewed map.
func TestGFHashUniform(t *testing.T) {
	const sets, ways, samples = 256, 4, 1 << 16
	g := NewGFHash(sets, ways, 99)
	r := rand.New(rand.NewSource(4242))
	counts := make([][]int, ways)
	for w := range counts {
		counts[w] = make([]int, sets)
	}
	for i := 0; i < samples; i++ {
		line := r.Uint64() & (1<<34 - 1)
		for w := 0; w < ways; w++ {
			counts[w][g.Index(w, line)]++
		}
	}
	exp := float64(samples) / float64(sets)
	for w := 0; w < ways; w++ {
		chi2 := 0.0
		for _, c := range counts[w] {
			d := float64(c) - exp
			chi2 += d * d / exp
		}
		if chi2 > 400 {
			t.Errorf("way %d: chi-squared %.1f over %d sets (df=%d), want < 400", w, chi2, sets, sets-1)
		}
	}
}

// TestGFHashDeterministic: same seed, same family; different seed, a
// different one.
func TestGFHashDeterministic(t *testing.T) {
	a := NewGFHash(2048, 23, 5)
	b := NewGFHash(2048, 23, 5)
	c := NewGFHash(2048, 23, 6)
	differs := false
	for i := uint64(0); i < 4096; i++ {
		for w := 0; w < a.Ways(); w++ {
			if a.Index(w, i) != b.Index(w, i) {
				t.Fatalf("same-seed families diverge at way %d line %#x", w, i)
			}
			if a.Index(w, i) != c.Index(w, i) {
				differs = true
			}
		}
	}
	if !differs {
		t.Error("seed 5 and seed 6 produced identical index families")
	}
}

// FuzzGFHash checks the structural invariants on arbitrary line pairs:
// indices stay in range, and because each way's map is an invertible affine
// transform of the folded address, two lines co-index in a way exactly when
// their folds collide.
func FuzzGFHash(f *testing.F) {
	f.Add(uint64(0), uint64(1), uint8(0))
	f.Add(uint64(0x123456789a), uint64(0x123456789a), uint8(3))
	f.Add(uint64(1)<<33, uint64(1), uint8(200))
	g := NewGFHash(2048, 8, 31337)
	f.Fuzz(func(t *testing.T, a, b uint64, wsel uint8) {
		w := int(wsel) % g.Ways()
		ia, ib := g.Index(w, a), g.Index(w, b)
		if ia < 0 || ia >= g.Sets() || ib < 0 || ib >= g.Sets() {
			t.Fatalf("index out of range: %d / %d (sets=%d)", ia, ib, g.Sets())
		}
		if (g.Fold(a) == g.Fold(b)) != (ia == ib) {
			t.Fatalf("affine map not injective on folds: fold %#x/%#x, idx %d/%d",
				g.Fold(a), g.Fold(b), ia, ib)
		}
	})
}

// refTables builds way w's lookup tables entry by entry with Mul — the
// definition the linear fill in Rekey must reproduce.
func refTables(g *GFHash, w int) (lo, hi [256]uint16) {
	mask := uint32(g.Sets() - 1)
	for b := uint32(0); b < 256; b++ {
		lo[b] = uint16(g.Mul(g.alpha[w], b&mask)) ^ uint16(g.beta[w])
		hi[b] = uint16(g.Mul(g.alpha[w], (b<<8)&mask))
	}
	return lo, hi
}

// TestGFHashRekey checks that Rekey(seed) on a family built from another
// seed leaves it byte-equal to NewGFHash(sets, ways, seed), that every table
// entry matches its definition, and that Rekey allocates nothing.
func TestGFHashRekey(t *testing.T) {
	for _, c := range []struct {
		sets, ways int
		seed       int64
	}{{1, 3, 4}, {2, 2, 9}, {16, 5, 1}, {256, 4, 77}, {2048, 23, 5}, {4096, 8, -3}, {1 << 16, 2, 1 << 40}} {
		g := NewGFHash(c.sets, c.ways, c.seed+1)
		g.Rekey(c.seed)
		want := NewGFHash(c.sets, c.ways, c.seed)
		if !bytes.Equal(g.AppendState(nil), want.AppendState(nil)) {
			t.Fatalf("%+v: Rekey differs from NewGFHash", c)
		}
		for w := 0; w < c.ways; w++ {
			lo, hi := refTables(g, w)
			if g.tabLo[w] != lo || g.tabHi[w] != hi {
				t.Fatalf("%+v: way %d tables differ from α·b ⊕ β", c, w)
			}
		}
		if allocs := testing.AllocsPerRun(5, func() { g.Rekey(c.seed) }); allocs != 0 {
			t.Fatalf("%+v: Rekey allocates %v times", c, allocs)
		}
	}
}
