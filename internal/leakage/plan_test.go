package leakage

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"secdir/internal/metrics"
	"secdir/internal/rng"
)

// smallLeaderboard is a two-defense, two-strategy race small enough to run
// several times per test.
func smallLeaderboard(t *testing.T) LeaderboardOptions {
	t.Helper()
	ss, err := ParseStrategyList("primeprobe,evictreload")
	if err != nil {
		t.Fatal(err)
	}
	return LeaderboardOptions{
		Configs:       []string{"skylake-unfixed", "skewed"},
		Strategies:    ss,
		Trials:        12,
		Rounds:        8,
		EvictionLines: lbEvLines,
		Seed:          3,
		Workers:       2,
		PerfAccesses:  10_000,
	}
}

// smallReport is the report-sweep counterpart of smallLeaderboard.
func smallReport(t *testing.T) ReportOptions {
	t.Helper()
	ss, err := ParseStrategyList("primeprobe,evictreload")
	if err != nil {
		t.Fatal(err)
	}
	return ReportOptions{
		Configs:    []string{"skylake-unfixed", "secdir"},
		Strategies: ss,
		Trials:     12,
		Rounds:     8,
		Seed:       3,
		Resamples:  50,
		Workers:    2,
	}
}

// TestPlanLayout pins the unit order the executor's balance relies on:
// configuration-major, each configuration's probe first in its block, and
// every cell's trials tiled exactly once by ranges of at most chunk trials.
func TestPlanLayout(t *testing.T) {
	o := smallLeaderboard(t)
	p, err := PlanLeaderboard(o, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Configs) != 2 || len(p.Cells) != 4 {
		t.Fatalf("%d configs, %d cells; want 2 and 4", len(p.Configs), len(p.Cells))
	}
	covered := make([][]int, len(p.Cells))
	for i := range covered {
		covered[i] = make([]int, o.Trials)
	}
	lastConfig := 0
	for i, u := range p.Units {
		if u.Config < lastConfig {
			t.Fatalf("unit %d returns to config %d after %d: not config-major", i, u.Config, lastConfig)
		}
		if u.Config != lastConfig || i == 0 {
			if !u.Perf() {
				t.Fatalf("unit %d opens config %d's block but is not its probe: %+v", i, u.Config, u)
			}
			lastConfig = u.Config
			continue
		}
		if u.Perf() {
			t.Fatalf("unit %d is a second probe for config %d", i, u.Config)
		}
		if u.Count < 1 || u.Count > 5 || p.Cells[u.Cell].Config != u.Config {
			t.Fatalf("unit %d: %+v", i, u)
		}
		for k := u.Start; k < u.Start+u.Count; k++ {
			covered[u.Cell][k]++
		}
	}
	for c, ks := range covered {
		for k, n := range ks {
			if n != 1 {
				t.Fatalf("cell %s trial %d covered %d times", p.Cells[c].Stage(), k, n)
			}
		}
	}

	rp, err := PlanReport(smallReport(t), 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range rp.Units {
		if u.Perf() || u.Count != 1 {
			t.Fatalf("report plan unit %+v: want single-trial ranges and no probes", u)
		}
	}
}

// runShuffledSerial executes p's units one at a time in a seeded random
// order: the single worker keeps changing configuration, so its engine is
// dropped, rebuilt and reset across probes and both strategies' trials in
// every order the shuffle produces.
func runShuffledSerial(t *testing.T, p *Plan, seed int64) *Results {
	t.Helper()
	r := rng.New(seed)
	for i := len(p.Units) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p.Units[i], p.Units[j] = p.Units[j], p.Units[i]
	}
	p.Base.Workers = 1
	res, err := p.Execute(context.Background(), Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestPlanUnitOrderInvariance runs a plan's units serially in shuffled
// orders, in fleet-sized chunks, and requires the same leaderboard rows and
// report as the executor's own pool: which unit runs when, and on which
// reused engine, must never reach a result.
func TestPlanUnitOrderInvariance(t *testing.T) {
	ctx := context.Background()
	lbOpts := smallLeaderboard(t)
	want, err := RunLeaderboard(ctx, lbOpts)
	if err != nil {
		t.Fatal(err)
	}
	repOpts := smallReport(t)
	wantRep, err := RunReport(ctx, repOpts)
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []int64{1, 2} {
		p, err := PlanLeaderboard(lbOpts, 5)
		if err != nil {
			t.Fatal(err)
		}
		got, err := p.Leaderboard(runShuffledSerial(t, p, seed))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("shuffle %d: leaderboard differs from the executor's:\n got %+v\nwant %+v", seed, got.Rows, want.Rows)
		}

		rp, err := PlanReport(repOpts, 5)
		if err != nil {
			t.Fatal(err)
		}
		gotRep, err := rp.Report(runShuffledSerial(t, rp, seed))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotRep, wantRep) {
			t.Fatalf("shuffle %d: report differs from the executor's:\n got %+v\nwant %+v", seed, gotRep.Verdicts, wantRep.Verdicts)
		}
	}
}

// stageRecorder collects staged progress calls.
type stageRecorder struct {
	mu     sync.Mutex
	dones  map[string][]int
	totals map[string]int
}

func newStageRecorder() *stageRecorder {
	return &stageRecorder{dones: map[string][]int{}, totals: map[string]int{}}
}

func (r *stageRecorder) progress(stage string, done, total int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.dones[stage] = append(r.dones[stage], done)
	r.totals[stage] = total
}

// check requires every stage to report strictly rising counts that end at
// the cell's trial count, with that count as the total.
func (r *stageRecorder) check(t *testing.T, stages []string, trials int) {
	t.Helper()
	if len(r.dones) != len(stages) {
		t.Errorf("progress names stages %v, want %v", r.dones, stages)
	}
	for _, stage := range stages {
		dones := r.dones[stage]
		if len(dones) == 0 {
			t.Errorf("stage %s reported no progress", stage)
			continue
		}
		for i := 1; i < len(dones); i++ {
			if dones[i] <= dones[i-1] {
				t.Errorf("stage %s progress not rising: %v", stage, dones)
				break
			}
		}
		if last := dones[len(dones)-1]; last != trials || r.totals[stage] != trials {
			t.Errorf("stage %s ends at %d of %d, want %d of %d", stage, last, r.totals[stage], trials, trials)
		}
	}
}

// TestSweepProgress pins the staged progress the server's NDJSON stream is
// built from, for a report and for a leaderboard run on one pool whose
// workers interleave every cell: each "config/strategy" stage's done rises
// strictly and ends at the cell's trial count.
func TestSweepProgress(t *testing.T) {
	ctx := context.Background()
	stages := []string{"skylake-unfixed/primeprobe", "skylake-unfixed/evictreload", "secdir/primeprobe", "secdir/evictreload"}
	rep := smallReport(t)
	rep.Trials, rep.Workers = 40, 3
	rec := newStageRecorder()
	rep.Progress = rec.progress
	if _, err := RunReport(ctx, rep); err != nil {
		t.Fatal(err)
	}
	rec.check(t, stages, rep.Trials)

	lb := smallLeaderboard(t)
	lb.Trials, lb.Workers = 40, 3
	rec = newStageRecorder()
	lb.Progress = rec.progress
	if _, err := RunLeaderboard(ctx, lb); err != nil {
		t.Fatal(err)
	}
	rec.check(t, []string{"skylake-unfixed/primeprobe", "skylake-unfixed/evictreload", "skewed/primeprobe", "skewed/evictreload"}, lb.Trials)
}

// TestExecuteMetricsContract: leakage/trial_micros holds exactly one sample
// per trial and the probes land only in leakage/perf_micros, so a busy ratio
// computed from trial_micros counts trial time alone.
func TestExecuteMetricsContract(t *testing.T) {
	reg := metrics.New()
	o := smallLeaderboard(t)
	o.Metrics = reg
	lb, err := RunLeaderboard(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	trials := uint64(len(lb.Rows) * o.Trials)
	if got := reg.Histogram("leakage/trial_micros").N(); got != trials {
		t.Errorf("leakage/trial_micros holds %d samples, want %d (one per trial)", got, trials)
	}
	if got := reg.Counter("leakage/trials_total").Value(); got != trials {
		t.Errorf("leakage/trials_total = %d, want %d", got, trials)
	}
	if got := reg.Histogram("leakage/perf_micros").N(); got != uint64(len(o.Configs)) {
		t.Errorf("leakage/perf_micros holds %d samples, want %d (one per defense)", got, len(o.Configs))
	}
}

// TestPerfProbeBounds: an oversized probe is refused before it runs, and a
// running probe stops on cancellation instead of finishing its loop.
func TestPerfProbeBounds(t *testing.T) {
	if _, err := PlanPerf("secdir", 8, MaxPerfAccesses+1); err == nil {
		t.Error("PlanPerf accepted perf accesses above MaxPerfAccesses")
	}
	o := smallLeaderboard(t)
	o.PerfAccesses = MaxPerfAccesses + 1
	if _, err := PlanLeaderboard(o, 0); err == nil {
		t.Error("PlanLeaderboard accepted perf accesses above MaxPerfAccesses")
	}

	p, err := PlanPerf("secdir", 8, MaxPerfAccesses)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = p.Execute(ctx, Hooks{})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("probe under a 50ms deadline returned %v, want a deadline error", err)
	}
	// The full probe is 2^25 accesses; stopping within 4096 of the
	// deadline takes milliseconds even under the race detector.
	if d := time.Since(start); d > 10*time.Second {
		t.Errorf("cancelled probe took %v to stop", d)
	}
}
