// Package rng provides the simulator's replacement-policy random number
// generator: a seeded splitmix64 stream held by value.
//
// The hot paths (cachesim Random replacement, cuckoo displacement picks,
// trace generators) previously drew from math/rand.Rand, which costs an
// interface dispatch through rand.Source per draw plus a heap allocation per
// cache/table for the generator state. Rand here is a single uint64 of state
// embedded directly in its owner, advanced by the splitmix64 finalizer
// (Steele, Lea & Flood, "Fast splittable pseudorandom number generators",
// OOPSLA 2014). The stream is fully determined by the seed, so simulations
// stay reproducible run-to-run, and sequential seeds (bank 0, bank 1, ...)
// yield statistically independent streams — splitmix64 is specifically
// designed to decorrelate consecutive seeds, which is exactly the per-bank
// seeding pattern the VD uses.
package rng

import "math/bits"

// Rand is a splitmix64 generator. The zero value is a valid generator seeded
// with 0; use New to seed it explicitly. Copying a Rand forks the stream.
type Rand struct {
	state uint64
}

// New returns a generator seeded with seed. Distinct seeds — including
// consecutive integers — produce independent streams.
func New(seed int64) Rand {
	return Rand{state: uint64(seed)}
}

// Uint64 advances the stream and returns the next 64 uniformly random bits.
func (r *Rand) Uint64() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Intn returns a uniformly random int in [0, n). It panics if n <= 0.
// The fixed-point reduction (Lemire 2019) maps the 64-bit draw onto [0, n)
// with a single multiply; for the way/bank counts used here (n ≤ a few
// hundred) the modulo bias is below 2^-55 and irrelevant to the simulation.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	hi, _ := bits.Mul64(r.Uint64(), uint64(n))
	return int(hi)
}

// Float64 returns a uniformly random float64 in [0, 1) with 53 bits of
// precision.
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// State returns the generator's whole state word: two generators with equal
// states produce equal streams. State digests record it.
func (r Rand) State() uint64 { return r.state }
