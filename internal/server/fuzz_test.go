package server

import (
	"bytes"
	"io"
	"reflect"
	"slices"
	"testing"

	"secdir/internal/config"
	"secdir/internal/leakage"
)

// FuzzJobSpec drives arbitrary submit bodies through the handler's decode
// and JobSpec.Normalize. Neither may panic, and an accepted spec must fit the
// simulated machine, stay within the leakage bounds on every field its kind
// sizes allocations with, and normalize again to itself. The seed corpus under
// testdata/fuzz/FuzzJobSpec holds one spec per job kind.
func FuzzJobSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var spec JobSpec
		if decodeBody(nil, io.NopCloser(bytes.NewReader(data)), &spec) != nil || spec.Normalize() != nil {
			return
		}
		if spec.Cores > config.MaxCores {
			t.Fatalf("accepted %d cores, above MaxCores", spec.Cores)
		}
		sized := spec.Kind == KindAttack || spec.Kind == KindLeak || spec.Kind == KindLeaderboard
		if sized && (spec.Rounds > leakage.MaxRounds || spec.EvictionLines > leakage.MaxEvictionLines) {
			t.Fatalf("accepted rounds %d / eviction lines %d above the leakage bounds", spec.Rounds, spec.EvictionLines)
		}
		if spec.Kind != KindAttack && sized && (spec.Trials > leakage.MaxTrials || spec.Resamples > leakage.MaxResamples) {
			t.Fatalf("accepted trials %d / resamples %d above the leakage bounds", spec.Trials, spec.Resamples)
		}
		again := spec
		again.Experiments = slices.Clone(spec.Experiments)
		again.Configs = slices.Clone(spec.Configs)
		again.Strategies = slices.Clone(spec.Strategies)
		if err := again.Normalize(); err != nil || !reflect.DeepEqual(again, spec) {
			t.Fatalf("Normalize not idempotent (err %v):\n first %+v\nsecond %+v", err, spec, again)
		}
	})
}
