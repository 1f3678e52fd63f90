package server

import (
	"bytes"
	"io"
	"reflect"
	"slices"
	"testing"

	"secdir/internal/config"
)

// FuzzJobSpec drives arbitrary submit bodies through the handler's decode
// and JobSpec.Normalize. Neither may panic, and an accepted spec must fit the
// simulated machine and normalize again to itself. The seed corpus under
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
		again := spec
		again.Experiments = slices.Clone(spec.Experiments)
		again.Configs = slices.Clone(spec.Configs)
		again.Strategies = slices.Clone(spec.Strategies)
		if err := again.Normalize(); err != nil || !reflect.DeepEqual(again, spec) {
			t.Fatalf("Normalize not idempotent (err %v):\n first %+v\nsecond %+v", err, spec, again)
		}
	})
}
