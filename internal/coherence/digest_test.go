package coherence

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"secdir/internal/addr"
)

// TestResetDigest pins Engine.Reset to the NewEngine oracle on the whole
// machine state, not just on behaviour: for every design, one engine runs
// seeded access prefixes of growing length (long enough for several
// randomized re-keys and remap steps), and after each one Reset(seed) must
// give the same state digest as NewEngine(cfg.WithSeed(seed)). The digest
// covers LRU ticks and replacement generators in sets no later access
// touches, cuckoo placement, and the rival kinds' keys and remap pointers —
// state a behavioural comparison only sees if some access happens to reach
// it. Both engines then run one more identical prefix and must still agree,
// which covers state the digest cannot encode (keyed index closures).
func TestResetDigest(t *testing.T) {
	for _, d := range allDesigns(smallConfig) {
		t.Run(d.name, func(t *testing.T) {
			e := newEngine(t, d.cfg)
			for i, n := range []int{0, 40, 900, 6000, 70000, 300} {
				driveSeeded(e, n, int64(i))
				seed := d.cfg.Seed + 100 + int64(i)
				if err := e.Reset(seed); err != nil {
					t.Fatalf("Reset: %v", err)
				}
				fresh := newEngine(t, d.cfg.WithSeed(seed))
				sameState(t, fmt.Sprintf("Reset after %d accesses", n), e, fresh)
				driveSeeded(e, 2000, seed)
				driveSeeded(fresh, 2000, seed)
				sameState(t, fmt.Sprintf("2000 accesses after Reset after %d", n), e, fresh)
			}
		})
	}
}

// FuzzResetAccess interleaves accesses and resets on one engine and checks
// the state digest against a fresh engine at every Reset. Byte 0 picks the
// design. Every following byte pair is one op: (0xFF, s) resets with seed s;
// any other pair is an access encoded as in FuzzEngineOps (bits 0-1 of the
// first byte the core, bit 2 the write flag, bits 3-7 and the second byte the
// line). The randomized kinds re-key every 16 operations so short inputs
// reach their remap paths. Run `go test -fuzz FuzzResetAccess
// ./internal/coherence` to explore; under plain `go test` the seeds and the
// files under testdata/fuzz act as regression tests.
func FuzzResetAccess(f *testing.F) {
	designs := allDesigns(smallConfig)
	for i := range designs {
		// Fill, reset, refill with writes, reset again.
		ops := []byte{byte(i)}
		for l := byte(0); l < 48; l++ {
			ops = append(ops, l<<3|l&3, l*37)
		}
		ops = append(ops, 0xFF, 9)
		for l := byte(0); l < 48; l++ {
			ops = append(ops, l<<3|4|l&3, l*53)
		}
		f.Add(append(ops, 0xFF, 200))
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) == 0 {
			return
		}
		d := designs[int(ops[0])%len(designs)]
		if d.cfg.RekeyEvery > 0 {
			d.cfg.RekeyEvery = 16
		}
		e, err := NewEngine(d.cfg)
		if err != nil {
			t.Fatalf("NewEngine: %v", err)
		}
		for i := 1; i+1 < len(ops); i += 2 {
			b := ops[i]
			if b == 0xFF {
				seed := int64(ops[i+1])
				if err := e.Reset(seed); err != nil {
					t.Fatalf("Reset: %v", err)
				}
				fresh, err := NewEngine(d.cfg.WithSeed(seed))
				if err != nil {
					t.Fatalf("NewEngine: %v", err)
				}
				sameState(t, fmt.Sprintf("%s: Reset at op %d", d.name, i), e, fresh)
				continue
			}
			e.Access(int(b&3), addr.Line(uint64(b>>3)<<8|uint64(ops[i+1])), b&4 != 0)
		}
		if err := e.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})
}

// driveSeeded runs n seeded accesses through the engine: random cores, 25%
// writes over a 4096-line space, and a random core flushed every 512
// accesses so the eviction-notification path runs too.
func driveSeeded(e *Engine, n int, seed int64) {
	r := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		e.Access(r.Intn(e.cfg.Cores), addr.Line(r.Intn(1<<12)), r.Intn(4) == 0)
		if i%512 == 511 {
			e.FlushCore(r.Intn(e.cfg.Cores))
		}
	}
}

// sameState fails the test unless the two engines' state digests are equal,
// naming the first differing byte.
func sameState(t *testing.T, what string, got, want *Engine) {
	t.Helper()
	g, w := got.AppendState(nil), want.AppendState(nil)
	if bytes.Equal(g, w) {
		return
	}
	i := 0
	for i < len(g) && i < len(w) && g[i] == w[i] {
		i++
	}
	t.Fatalf("%s: state digest differs from a fresh engine at byte %d (lengths %d, %d)", what, i, len(g), len(w))
}

// TestDigestSeesState checks the digest is not blind: a fresh engine and one
// that ran a single access, or was built from another seed, must differ.
func TestDigestSeesState(t *testing.T) {
	for _, d := range allDesigns(smallConfig) {
		t.Run(d.name, func(t *testing.T) {
			a, b := newEngine(t, d.cfg), newEngine(t, d.cfg)
			if !bytes.Equal(a.AppendState(nil), b.AppendState(nil)) {
				t.Fatal("two fresh engines with one seed differ")
			}
			b.Access(1, 77, false)
			if bytes.Equal(a.AppendState(nil), b.AppendState(nil)) {
				t.Fatal("digest unchanged by an access")
			}
			c := newEngine(t, d.cfg.WithSeed(d.cfg.Seed+1))
			if bytes.Equal(a.AppendState(nil), c.AppendState(nil)) {
				t.Fatal("digest unchanged by the seed")
			}
		})
	}
}
