package coherence

import (
	"testing"

	"secdir/internal/config"
	"secdir/internal/trace"
)

// fullConfig returns kind at full 8-core paper geometry, re-keying at the
// cadences the CLIs, the server and the leaderboard use.
func fullConfig(kind config.DirectoryKind) config.Config {
	switch kind {
	case config.SecDir:
		return config.SecDirConfig(8)
	case config.RandMapped:
		return config.RandMappedConfig(8, 200_000)
	case config.Ceaser:
		return config.CeaserConfig(8, 20_000)
	}
	cfg := config.SkylakeX(8)
	cfg.Kind = kind
	cfg.AppendixAFix = true
	return cfg
}

// warmEngine builds an engine, drives 200k accesses of a deterministic
// stream through it so fills, migrations and scratch-buffer growth settle,
// and returns the engine and the stream to continue from. The stream takes
// 25%-write accesses in turn from two 64Ki-line regions: one spread over
// every set, one folded onto the lowest 64 directory sets of each slice.
// The folded half overflows those sets, so the set-indexed designs take TD
// conflicts and inclusion victims, and SecDir its VD migrations and hits.
func warmEngine(tb testing.TB, cfg config.Config) (*Engine, trace.Generator) {
	tb.Helper()
	e, err := NewEngine(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	spread := trace.NewUniform(1<<24, 64<<10, 0.25, 0, 7)
	folded := trace.NewUniform(0, 64<<10, 0.25, 0, 8)
	i := 0
	gen := trace.Func(func() trace.Access {
		if i++; i&1 == 0 {
			return spread.Next()
		}
		// Keep the L2 and directory set bits 0..8; move the rest above the
		// 11 directory set-index bits (3..13).
		a := folded.Next()
		a.Line = 1<<26 | a.Line>>9<<14 | a.Line&511
		return a
	})
	for i := 0; i < 200_000; i++ {
		a := gen.Next()
		e.Access(i&7, a.Line, a.Write)
	}
	return e, gen
}

// TestEngineMixedAllocFree pins the allocation-free hot path: after warm-up,
// Engine.Access performs no heap allocation on any directory design. The
// whole window is one AllocsPerRun run, because AllocsPerRun truncates its
// per-run average to an integer and would hide an allocation on a path only
// some accesses take.
func TestEngineMixedAllocFree(t *testing.T) {
	const window = 5000
	for _, d := range allDesigns(fullConfig) {
		t.Run(d.name, func(t *testing.T) {
			e, gen := warmEngine(t, d.cfg)
			allocs := testing.AllocsPerRun(1, func() {
				for i := 0; i < window; i++ {
					a := gen.Next()
					e.Access(i&7, a.Line, a.Write)
				}
			})
			if allocs != 0 {
				t.Fatalf("%v heap allocations over %d steady-state accesses, want 0", allocs, window)
			}
		})
	}
}

// TestResetAllocFree pins the in-place reset: at full 8-core geometry, on an
// engine a warm-up dirtied, Engine.Reset allocates nothing for any design —
// no directory kind rebuilds its slices or its keyed hash tables.
func TestResetAllocFree(t *testing.T) {
	for _, d := range allDesigns(fullConfig) {
		t.Run(d.name, func(t *testing.T) {
			e, _ := warmEngine(t, d.cfg)
			seed := d.cfg.Seed
			allocs := testing.AllocsPerRun(1, func() {
				seed++
				if err := e.Reset(seed); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Fatalf("%v heap allocations per Reset, want 0", allocs)
			}
		})
	}
}

// BenchmarkReset times Engine.Reset after a short trial-sized burst of
// accesses, the leakage lab's per-trial pattern, for every design at full
// geometry.
func BenchmarkReset(b *testing.B) {
	for _, d := range allDesigns(fullConfig) {
		b.Run(d.name, func(b *testing.B) {
			e, gen := warmEngine(b, d.cfg)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				for j := 0; j < 2000; j++ {
					a := gen.Next()
					e.Access(j&7, a.Line, a.Write)
				}
				b.StartTimer()
				if err := e.Reset(int64(i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAccess times the steady-state access path of every directory
// design on the engine and stream TestEngineMixedAllocFree checks.
func BenchmarkAccess(b *testing.B) {
	for _, d := range allDesigns(fullConfig) {
		b.Run(d.name, func(b *testing.B) {
			e, gen := warmEngine(b, d.cfg)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a := gen.Next()
				e.Access(i&7, a.Line, a.Write)
			}
		})
	}
}
