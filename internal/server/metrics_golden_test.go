package server

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"secdir/internal/config"
	"secdir/internal/metrics"
	"secdir/internal/sim"
	"secdir/internal/trace"
)

var updateMetrics = flag.Bool("update", false, "rewrite testdata/metrics_snapshot.json")

// metricsGoldenRuns returns the metrics snapshots of three small runs: a
// PARSEC workload with shared writes simulated on a SecDir machine whose
// directory is shrunk until the TD spills into the VDs and the VDs
// self-conflict, and the attack suite against SecDir and against the unfixed
// Skylake-X baseline. Between them they drive every engine, directory and VD
// instrument.
func metricsGoldenRuns(t *testing.T) map[string]metrics.Snapshot {
	t.Helper()
	out := map[string]metrics.Snapshot{}

	const cores = 4
	w, err := trace.NewParsecWorkload("fluidanimate", cores, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := config.SecDirConfig(cores)
	cfg.TDSets, cfg.EDSets, cfg.VDSets = 64, 64, 16
	reg := metrics.New()
	r, err := sim.New(sim.Options{
		Config:          cfg,
		Work:            w,
		WarmupAccesses:  2_000,
		MeasureAccesses: 8_000,
		Metrics:         reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.RunContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	out["sim/fluidanimate/secdir-small"] = reg.Snapshot()

	for name, cfg := range map[string]config.Config{
		"attack/secdir":          config.SecDirConfig(cores),
		"attack/skylake-unfixed": config.SkylakeX(cores),
	} {
		reg := metrics.New()
		if _, err := RunAttackSuite(context.Background(), cfg, reg, 8, 32, nil, 0, 0); err != nil {
			t.Fatal(err)
		}
		out[name] = reg.Snapshot()
	}
	return out
}

// TestMetricsSnapshotGolden pins the JSON metrics snapshot of the golden runs
// byte for byte: the names the simulator publishes, their values, and the
// histogram buckets. Regenerate with -update only for an intended change.
func TestMetricsSnapshotGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	runs := metricsGoldenRuns(t)
	var buf bytes.Buffer
	names := make([]string, 0, len(runs))
	for n := range runs {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		buf.WriteString("# " + n + "\n")
		if err := runs[n].WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join("testdata", "metrics_snapshot.json")
	if *updateMetrics {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("metrics snapshot differs from %s (rerun with -update if intended):\n%s", path, buf.String())
	}

	// Every engine, directory and VD counter and histogram must be exercised
	// by at least one run, or the golden pins nothing about it.
	seen := map[string]bool{}
	for _, s := range runs {
		for n, v := range s.Counters {
			seen[n] = seen[n] || v != 0
		}
		for n, h := range s.Histograms {
			seen[n] = seen[n] || h.N != 0
		}
	}
	for n, nonzero := range seen {
		sim := strings.HasPrefix(n, "engine/") || strings.HasPrefix(n, "dir/") || strings.HasPrefix(n, "vd/")
		if sim && !nonzero {
			t.Errorf("%s is zero in every golden run", n)
		}
	}
}
