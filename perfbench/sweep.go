package main

import (
	"bytes"
	"context"
	"encoding/csv"
	"fmt"
	"math"
	"os"
	"reflect"
	"runtime"
	"strings"
	"time"

	"secdir/internal/attack"
	"secdir/internal/coherence"
	"secdir/internal/leakage"
	"secdir/internal/metrics"
	"secdir/internal/rng"
	"secdir/internal/trace"
)

// The leaderboard-sweep workload races every defense at the golden
// parameters of data/leaderboard.csv: 6 defenses x {primeprobe,
// evictreload} x 60 trials x 32 rounds, 23 eviction lines, 2 workers. One
// request is one defense's RunLeaderboard call (its performance probe plus
// its two cells); six of them concatenate to the full leaderboard. The
// reported latency quantiles are each defense's own, over its calls,
// combined by geometric mean, so they weigh every defense alike.
const (
	lbTrials   = 60
	lbRounds   = 32
	lbEvLines  = 23
	lbWorkers  = 2
	lbCores    = 8
	goldenSeed = 1
	goldenCSV  = "data/leaderboard.csv"
)

// sweepSeed is the leakage seed of the k-th sweep of a run.
func sweepSeed(seed int64, k int) int64 { return seed*100 + int64(k) + 1 }

// defenseRows runs one defense's share of the leaderboard.
func defenseRows(name string, seed int64, reg *metrics.Registry) ([]leakage.LeaderboardRow, error) {
	lb, err := leakage.RunLeaderboard(context.Background(), leakage.LeaderboardOptions{
		Configs:       []string{name},
		Cores:         lbCores,
		Trials:        lbTrials,
		Rounds:        lbRounds,
		EvictionLines: lbEvLines,
		Workers:       lbWorkers,
		Seed:          seed,
		Metrics:       reg,
	})
	if err != nil {
		return nil, err
	}
	return lb.Rows, nil
}

// leaderboardCSV renders a full sweep in the exact format of the golden file.
func leaderboardCSV(seed int64, rows []leakage.LeaderboardRow) ([]byte, error) {
	lb := leakage.Leaderboard{Trials: lbTrials, Rounds: lbRounds, Seed: seed, Rows: rows}
	head, body := lb.CSV()
	var buf bytes.Buffer
	w := csv.NewWriter(&buf)
	if err := w.Write(head); err != nil {
		return nil, err
	}
	if err := w.WriteAll(body); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// checkRows applies the verdicts that hold at every seed: SecDir never
// leaks and the unfixed baseline always leaks through evict+reload.
func checkRows(rep *report, seed int64, rows []leakage.LeaderboardRow) {
	for _, r := range rows {
		switch {
		case r.Config == "secdir":
			rep.check(!r.Leak, "leaderboard-sweep seed %d: secdir/%s leaks (|t|=%.2f)", seed, r.Strategy, math.Abs(r.TStat))
		case r.Config == "skylake-unfixed" && r.Strategy == "evictreload":
			rep.check(r.Leak, "leaderboard-sweep seed %d: skylake-unfixed/evictreload does not leak (|t|=%.2f)", seed, math.Abs(r.TStat))
		}
	}
}

// checkGolden compares a full sweep at the golden seed with the committed CSV.
func checkGolden(rep *report, rows []leakage.LeaderboardRow) error {
	got, err := leaderboardCSV(goldenSeed, rows)
	if err != nil {
		return err
	}
	want, err := os.ReadFile(goldenCSV)
	if err != nil {
		return err
	}
	rep.check(bytes.Equal(got, want), "leaderboard-sweep: golden sweep differs from %s", goldenCSV)
	return nil
}

// sweepSetup builds what a sweep needs before its first trial: every
// defense's configuration and engine, and the attack roster.
func sweepSetup() error {
	for _, name := range leakage.LeaderboardNames {
		cfg, err := leakage.ParseConfig(name, lbCores)
		if err != nil {
			return err
		}
		if _, err := coherence.NewEngine(cfg); err != nil {
			return err
		}
	}
	_, err := leakage.ParseStrategyList(strings.Join(leakage.LeaderboardStrategies, ","))
	return err
}

func runSweep(seed int64, budget time.Duration, rep *report) error {
	mem := startMemSampler()
	defer mem.Stop()
	resume := pauseGC()
	defer resume()
	setups := make([]float64, setupReps)
	for i := range setups {
		runtime.GC()
		t0 := time.Now()
		if err := sweepSetup(); err != nil {
			return err
		}
		setups[i] = time.Since(t0).Seconds()
	}
	resume()

	// Whole sweeps only, so every run weighs the six defenses equally.
	// Each defense's calls are timed apart: the six differ by design, so
	// their latencies are six distributions, not one.
	perDefense := make([][]float64, len(leakage.LeaderboardNames))
	var rates []float64
	var sweeps [][]leakage.LeaderboardRow
	cells := 0
	start := stampNow()
	for k := 0; k == 0 || time.Since(start.wall) < budget; k++ {
		var rows []leakage.LeaderboardRow
		ts := stampNow()
		for i, name := range leakage.LeaderboardNames {
			t0 := stampNow()
			rs, err := defenseRows(name, sweepSeed(seed, k), nil)
			if err != nil {
				return err
			}
			d, _ := t0.since()
			perDefense[i] = append(perDefense[i], msOf(d))
			rows = append(rows, rs...)
		}
		d, _ := ts.since()
		rates = append(rates, float64(len(rows)*lbTrials)/d.Seconds())
		cells += len(rows)
		sweeps = append(sweeps, rows)
	}
	elapsed, wall := start.since()
	peak := mem.Stop()

	p50, p90 := groupedQuantiles(perDefense)
	rep.attempted = cells
	rep.set("setup_s", "s", median(setups))
	rep.set("mem_peak_mb", "MB", peak)
	rep.set("work_per_s", "1/s", median(rates))
	rep.set("latency_p50_ms", "ms", p50)
	rep.set("latency_p90_ms", "ms", p90)
	rep.note("leaderboard-sweep: leak_trials_per_s %.2f trials/s (median of %d sweeps of %d cells; %.2f over all %.2fs net, %.2f over %.2fs wall)",
		median(rates), len(sweeps), cells/len(sweeps), float64(cells*lbTrials)/elapsed.Seconds(), elapsed.Seconds(),
		float64(cells*lbTrials)/wall.Seconds(), wall.Seconds())
	for i, name := range leakage.LeaderboardNames {
		rep.note("leaderboard-sweep: %s call latency ms %v", name, summarize(perDefense[i]))
	}
	rep.note("leaderboard-sweep: geometric mean over defenses p50 %.4g p90 %.4g; setup n=%d", p50, p90, len(setups))

	golden := false
	for k, rows := range sweeps {
		checkRows(rep, sweepSeed(seed, k), rows)
		if sweepSeed(seed, k) == goldenSeed {
			golden = true
			if err := checkGolden(rep, rows); err != nil {
				return err
			}
		}
	}
	if golden {
		return nil
	}
	var rows []leakage.LeaderboardRow
	for _, name := range leakage.LeaderboardNames {
		rs, err := defenseRows(name, goldenSeed, nil)
		if err != nil {
			return err
		}
		rows = append(rows, rs...)
	}
	return checkGolden(rep, rows)
}

// replicaTiming accumulates the layer split of the replica trial loop.
type replicaTiming struct {
	trials, newEngineCalls                int
	newEngine, reset, driver, rounds, all time.Duration
	roundAccesses, accesses               uint64
}

// replicaSeeds reproduces the lab's trial seeding: one splitmix stream from
// the master seed.
func replicaSeeds(seed int64, trials int) []int64 {
	r := rng.New(seed)
	seeds := make([]int64, trials)
	for i := range seeds {
		seeds[i] = int64(r.Uint64())
	}
	return seeds
}

// replicaSchedule reproduces a trial's balanced, seeded active/idle order.
func replicaSchedule(seed int64, rounds int) []bool {
	sched := make([]bool, rounds)
	for i := 0; i < rounds/2; i++ {
		sched[i] = true
	}
	sr := rng.New(seed ^ 0x5eed)
	for i := len(sched) - 1; i > 0; i-- {
		j := sr.Intn(i + 1)
		sched[i], sched[j] = sched[j], sched[i]
	}
	return sched
}

func engineAccesses(e *coherence.Engine) uint64 {
	var n uint64
	for _, cs := range e.Stats().Core {
		n += cs.Accesses
	}
	return n
}

// replicaCell runs one cell's trials on one worker from public calls only —
// NewEngine once, Reset between trials, Strategy.NewDriver, and
// attack.ForEachRound — timing each step.
func replicaCell(o leakage.Options, tm *replicaTiming) ([]leakage.TrialResult, error) {
	p := attack.Params{Victim: 0, Target: trace.T0Lines()[0], EvictionLines: o.EvictionLines}
	for c := 1; c < o.Config.Cores; c++ {
		p.Attackers = append(p.Attackers, c)
	}
	out := make([]leakage.TrialResult, o.Trials)
	var e *coherence.Engine
	for i, seed := range replicaSeeds(o.Seed, o.Trials) {
		t0 := time.Now()
		var err error
		if e == nil {
			e, err = coherence.NewEngine(o.Config.WithSeed(seed))
			tm.newEngine += time.Since(t0)
			tm.newEngineCalls++
		} else {
			err = e.Reset(seed)
			tm.reset += time.Since(t0)
		}
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		d, err := o.Strategy.NewDriver(e, p)
		if err != nil {
			return nil, err
		}
		before := engineAccesses(e)
		sched := replicaSchedule(seed, o.Rounds)
		t2 := time.Now()
		tm.driver += t2.Sub(t1)
		var sumA, sumI float64
		var nA, nI int
		attack.ForEachRound(d, o.Rounds, func(i int) bool { return sched[i] },
			func(_ int, active bool, obs float64) {
				if active {
					sumA += obs
					nA++
				} else {
					sumI += obs
					nI++
				}
			})
		tm.rounds += time.Since(t2)
		acc := engineAccesses(e)
		tm.roundAccesses += acc - before
		tm.accesses += acc
		tr := leakage.TrialResult{Index: i, Accesses: acc}
		if nA > 0 {
			tr.Active = sumA / float64(nA)
		}
		if nI > 0 {
			tr.Idle = sumI / float64(nI)
		}
		out[i] = tr
		tm.all += time.Since(t0)
		tm.trials++
	}
	return out, nil
}

// sameTrials reports whether two trial result sets are bit-identical.
func sameTrials(a, b []leakage.TrialResult) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Index != b[i].Index || a[i].Accesses != b[i].Accesses ||
			math.Float64bits(a[i].Active) != math.Float64bits(b[i].Active) ||
			math.Float64bits(a[i].Idle) != math.Float64bits(b[i].Idle) {
			return false
		}
	}
	return true
}

// histQuantile estimates the q-quantile of a registry histogram by linear
// interpolation inside the power-of-two bucket that holds it.
func histQuantile(h metrics.HistogramSnapshot, q float64) float64 {
	if h.N == 0 {
		return math.NaN()
	}
	target := q * float64(h.N)
	var seen float64
	for b := 0; b < 64; b++ {
		c := float64(h.Buckets[b])
		if c == 0 {
			continue
		}
		if seen+c >= target {
			if b == 0 {
				return 0
			}
			lo := float64(uint64(1) << uint(b-1))
			return lo + (target-seen)/c*lo // bucket b spans [lo, 2lo)
		}
		seen += c
	}
	return math.NaN()
}

// traceSweep splits one full sweep into its layers: the sweep itself with
// the program's metrics registry attached, an interleaved untraced copy for
// the tracing overhead, a single-worker replica of every cell's trial loop checked
// bit-for-bit against leakage.RunShard, the verdict merge, and the
// performance probe.
func traceSweep(seed int64, rep *report) error {
	s := sweepSeed(seed, 0)
	reg := metrics.New()
	var rows []leakage.LeaderboardRow
	var traced, plain time.Duration
	// Each defense runs traced and untraced back to back, in alternating
	// order, so neither host drift nor going second lands on one side of
	// the overhead.
	for i, name := range leakage.LeaderboardNames {
		for _, withReg := range [][2]bool{{true, false}, {false, true}}[i%2] {
			var r *metrics.Registry
			if withReg {
				r = reg
			}
			t0 := time.Now()
			rs, err := defenseRows(name, s, r)
			if err != nil {
				return err
			}
			if withReg {
				traced += time.Since(t0)
				rows = append(rows, rs...)
			} else {
				plain += time.Since(t0)
			}
		}
	}
	checkRows(rep, s, rows)
	hist := reg.Snapshot().Histograms["leakage/trial_micros"]

	var tm replicaTiming
	var verdict time.Duration
	cell := 0
	for _, name := range leakage.LeaderboardNames {
		cfg, err := leakage.ParseConfig(name, lbCores)
		if err != nil {
			return err
		}
		for _, sn := range leakage.LeaderboardStrategies {
			strat, err := leakage.ParseStrategy(sn)
			if err != nil {
				return err
			}
			o := leakage.Options{
				Config: cfg, ConfigName: name, Strategy: strat, Trials: lbTrials, Rounds: lbRounds,
				EvictionLines: lbEvLines, Workers: lbWorkers, Seed: s,
			}.Normalized()
			got, err := replicaCell(o, &tm)
			if err != nil {
				return err
			}
			want, err := leakage.RunShard(context.Background(), o, 0, o.Trials, nil)
			if err != nil {
				return err
			}
			rep.check(sameTrials(got, want), "leaderboard-sweep: replica trials of %s/%s differ from leakage.RunShard", name, sn)
			tv := time.Now()
			v, err := leakage.MergeVerdict(o, got)
			verdict += time.Since(tv)
			if err != nil {
				return err
			}
			rep.check(cell < len(rows) && reflect.DeepEqual(v, rows[cell].Verdict),
				"leaderboard-sweep: replica verdict of %s/%s differs from the sweep's", name, sn)
			cell++
		}
	}

	var perf time.Duration
	for _, name := range leakage.LeaderboardNames {
		tp := time.Now()
		if _, _, _, err := leakage.PerfCost(name, lbCores, 0); err != nil {
			return err
		}
		perf += time.Since(tp)
	}

	msPer := func(d time.Duration, n int) float64 { return float64(d) / float64(time.Millisecond) / float64(n) }
	rep.attempted += tm.trials
	rep.set("coherence.new_engine_ms", "ms", msPer(tm.newEngine, tm.newEngineCalls))
	rep.set("coherence.new_engine_calls", "count", float64(tm.newEngineCalls))
	rep.set("coherence.reset_ms", "ms", msPer(tm.reset, tm.trials-tm.newEngineCalls))
	rep.set("coherence.reset_share", "ratio", tm.reset.Seconds()/tm.all.Seconds())
	rep.set("attack.round_ns_per_access", "ns", float64(tm.rounds.Nanoseconds())/float64(tm.roundAccesses))
	rep.set("attack.accesses_per_trial", "count", float64(tm.accesses)/float64(tm.trials))
	rep.set("leakage.trial_ms_p50", "ms", histQuantile(hist, 0.5)/1000)
	rep.set("leakage.worker_busy_ratio", "ratio", float64(hist.Sum)/1e6/(lbWorkers*traced.Seconds()))
	rep.set("leakage.verdict_ms", "ms", msPer(verdict, cell))
	rep.set("leakage.perfcost_ms", "ms", msPer(perf, len(leakage.LeaderboardNames)))
	rep.set("sweep.trace_overhead_pct", "%", 100*(traced.Seconds()-plain.Seconds())/plain.Seconds())
	rep.note("leaderboard-sweep traced: sweep %v (untraced %v); replica %d trials: new engine %v, reset %v, driver %v, rounds %v of %v",
		traced, plain, tm.trials, tm.newEngine, tm.reset, tm.driver, tm.rounds, tm.all)
	if hist.N != uint64(len(rows)*lbTrials) {
		return fmt.Errorf("leaderboard-sweep: trial histogram holds %d trials, want %d", hist.N, len(rows)*lbTrials)
	}
	return nil
}
