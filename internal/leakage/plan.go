package leakage

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"secdir/internal/area"
	"secdir/internal/attack"
	"secdir/internal/coherence"
	"secdir/internal/config"
	"secdir/internal/trace"
)

// This file is the lab's one scheduler. A sweep — a report, a leaderboard,
// one shard of a cell, or one performance probe — is a Plan: a list of
// Units, each a contiguous trial range of one (config, strategy) cell or one
// configuration's probe. Execute runs every unit on a single pool of
// Base.Workers goroutines pulling from one atomic cursor, with no barrier
// between cells. The fleet coordinator dispatches the same units to remote
// workers instead. Trials are seeded from (Seed, trial index) alone and the
// probe from a fixed seed, so results never depend on which worker ran
// which unit, or in what order.

// DefaultPerfAccesses is the measured-loop length of the performance probe
// when a leaderboard leaves it unset.
const DefaultPerfAccesses = 100_000

// MaxPerfAccesses bounds the probe's measured loop (it runs twice that many
// accesses, warm-up included): about a minute of simulation, far above the
// default, so an untrusted job spec or shard request cannot pin a worker.
const MaxPerfAccesses = 1 << 24

// probeSeed seeds every performance probe's engine and workload.
const probeSeed = 7

// ctxCheckMask sets how often the probe loop polls its context: every 4096
// accesses.
const ctxCheckMask = 1<<12 - 1

// Unit is one schedulable piece of a plan: trials [Start, Start+Count) of
// cell Cell, or, when Cell is -1, the performance probe of configuration
// Config.
type Unit struct {
	// Config indexes Plan.Configs: the machine the unit runs on.
	Config int
	// Cell indexes Plan.Cells for a trial range; -1 marks a probe.
	Cell int
	// Start is the first trial index of the range.
	Start int
	// Count is the number of trials in the range.
	Count int
}

// Perf reports whether u is a performance probe.
func (u Unit) Perf() bool { return u.Cell < 0 }

// PlanConfig is one configuration a plan runs on.
type PlanConfig struct {
	// Name is the configuration's ParseConfig name.
	Name string
	// Config is the machine it names at the plan's core count.
	Config config.Config
}

// Cell is one (config, strategy) cell of a plan.
type Cell struct {
	// Config indexes Plan.Configs.
	Config int
	// Opts are the cell's normalized measurement options.
	Opts Options
	// Start and Count delimit the trial range the plan covers: all of
	// [0, Opts.Trials) for a sweep, one shard's range for RunShard.
	Start int
	// Count is the number of trials the plan runs for the cell.
	Count int
}

// Stage is the cell's progress label, "config/strategy".
func (c Cell) Stage() string { return c.Opts.ConfigName + "/" + c.Opts.Strategy.Name() }

// PerfResult is one configuration's leaderboard cost columns: the
// simulated-latency probe and the Table 7 storage and area model.
type PerfResult struct {
	// SimNsAccess is the average simulated memory-access latency under the
	// uniform mixed workload, in nanoseconds at the 2 GHz core clock. It is
	// computed from the engine's deterministic latency model, so it is
	// bit-reproducible — no wall clock involved.
	SimNsAccess float64 `json:"sim_ns_access"`
	// StorageKB is the defense's per-slice directory storage.
	StorageKB float64 `json:"storage_kb"`
	// AreaMM2 is the per-slice silicon estimate of the Table 7 CACTI model.
	AreaMM2 float64 `json:"area_mm2"`
}

// Plan is a sweep expanded into units, in the order workers claim them:
// configuration-major, each configuration's probe first so the longest unit
// never runs last.
type Plan struct {
	// Base holds the options every cell shares, normalized. Base.Workers
	// sizes the executor's pool and Base.Metrics receives its metrics.
	Base Options
	// Configs are the configurations, in sweep order.
	Configs []PlanConfig
	// Cells are the (config, strategy) cells, row-major.
	Cells []Cell
	// PerfAccesses is the probe's measured-loop length (0 = no probes).
	PerfAccesses int
	// Units are the schedulable pieces, in claim order.
	Units []Unit
}

// PlanReport expands a report sweep into units of at most chunk trials
// (chunk <= 0 means one trial per unit).
func PlanReport(o ReportOptions, chunk int) (*Plan, error) {
	if len(o.Configs) == 0 {
		o.Configs = ConfigNames
	}
	if len(o.Strategies) == 0 {
		o.Strategies = DefaultSuite()
	}
	base := Options{
		Trials:        o.Trials,
		Rounds:        o.Rounds,
		EvictionLines: o.EvictionLines,
		Workers:       o.Workers,
		Seed:          o.Seed,
		Confidence:    o.Confidence,
		Resamples:     o.Resamples,
		Metrics:       o.Metrics,
	}
	return newPlan(base, o.Configs, o.Strategies, o.Cores, 0, chunk)
}

// PlanLeaderboard expands a leaderboard race into one probe unit per
// defense plus units of at most chunk trials (chunk <= 0 means one trial
// per unit). The verdicts use the default bootstrap parameters.
func PlanLeaderboard(o LeaderboardOptions, chunk int) (*Plan, error) {
	if len(o.Configs) == 0 {
		o.Configs = LeaderboardNames
	}
	if len(o.Strategies) == 0 {
		ss, err := ParseStrategyList(strings.Join(LeaderboardStrategies, ","))
		if err != nil {
			return nil, err
		}
		o.Strategies = ss
	}
	perf := o.PerfAccesses
	if perf <= 0 {
		perf = DefaultPerfAccesses
	}
	base := Options{
		Trials:        o.Trials,
		Rounds:        o.Rounds,
		EvictionLines: o.EvictionLines,
		Workers:       o.Workers,
		Seed:          o.Seed,
		Metrics:       o.Metrics,
	}
	return newPlan(base, o.Configs, o.Strategies, o.Cores, perf, chunk)
}

// PlanShard is the one-cell plan of trials [start, start+count) of the
// measurement o describes, one trial per unit.
func PlanShard(o Options, start, count int) (*Plan, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	o = o.withDefaults()
	if err := checkCell(o); err != nil {
		return nil, err
	}
	if start < 0 || count < 0 || start+count > o.Trials {
		return nil, fmt.Errorf("leakage: shard [%d,%d) outside trial range [0,%d)", start, start+count, o.Trials)
	}
	p := &Plan{Base: o, Configs: []PlanConfig{{Name: o.ConfigName, Config: o.Config}}}
	p.addCell(0, o, start, count, 1)
	return p, nil
}

// PlanPerf is the one-unit plan of a configuration's performance probe.
// cores <= 0 and perfAccesses == 0 take their defaults.
func PlanPerf(name string, cores, perfAccesses int) (*Plan, error) {
	if cores <= 0 {
		cores = 8
	}
	if perfAccesses == 0 {
		perfAccesses = DefaultPerfAccesses
	}
	if err := checkPerfAccesses(perfAccesses); err != nil {
		return nil, err
	}
	cfg, err := ParseConfig(name, cores)
	if err != nil {
		return nil, err
	}
	return &Plan{
		Base:         Options{Workers: 1}.withDefaults(),
		Configs:      []PlanConfig{{Name: name, Config: cfg}},
		PerfAccesses: perfAccesses,
		Units:        []Unit{{Config: 0, Cell: -1}},
	}, nil
}

// checkPerfAccesses bounds a probe length.
func checkPerfAccesses(n int) error {
	if n < 0 || n > MaxPerfAccesses {
		return fmt.Errorf("leakage: perf accesses %d outside [0,%d]", n, MaxPerfAccesses)
	}
	return nil
}

// checkCell rejects options no trial can run with.
func checkCell(o Options) error {
	if o.Strategy == nil {
		return fmt.Errorf("leakage: Options.Strategy is nil")
	}
	if o.Config.Cores < 2 {
		return fmt.Errorf("leakage: need at least 2 cores, have %d", o.Config.Cores)
	}
	return nil
}

// newPlan builds a sweep plan over configs × strategies, every cell's
// Options normalized from one shared base so the merge parameters match.
func newPlan(base Options, configs []string, strategies []Strategy, cores, perfAccesses, chunk int) (*Plan, error) {
	if err := base.Validate(); err != nil {
		return nil, err
	}
	if err := checkPerfAccesses(perfAccesses); err != nil {
		return nil, err
	}
	if cores <= 0 {
		cores = 8
	}
	if chunk <= 0 {
		chunk = 1
	}
	p := &Plan{Base: base.withDefaults(), PerfAccesses: perfAccesses}
	for ci, name := range configs {
		cfg, err := ParseConfig(name, cores)
		if err != nil {
			return nil, err
		}
		p.Configs = append(p.Configs, PlanConfig{Name: name, Config: cfg})
		if perfAccesses > 0 {
			p.Units = append(p.Units, Unit{Config: ci, Cell: -1})
		}
		for _, s := range strategies {
			o := p.Base
			o.Config = cfg
			o.ConfigName = name
			o.Strategy = s
			if err := checkCell(o); err != nil {
				return nil, err
			}
			p.addCell(ci, o, 0, o.Trials, chunk)
		}
	}
	if len(p.Cells) == 0 {
		return nil, fmt.Errorf("leakage: sweep has no (config, strategy) cells")
	}
	return p, nil
}

// addCell appends a cell covering [start, start+count) and its trial units.
func (p *Plan) addCell(config int, o Options, start, count, chunk int) {
	ci := len(p.Cells)
	p.Cells = append(p.Cells, Cell{Config: config, Opts: o, Start: start, Count: count})
	for s := start; s < start+count; s += chunk {
		p.Units = append(p.Units, Unit{Config: config, Cell: ci, Start: s, Count: min(chunk, start+count-s)})
	}
}

// Results is what an executed plan produced.
type Results struct {
	// Trials holds each cell's trial results. Execute fills them in trial
	// index order over the cell's range; MergeVerdict accepts any order.
	Trials [][]TrialResult
	// Perf holds each configuration's probe result (zero without a probe).
	Perf []PerfResult
}

// Hooks observe an execution as its units complete. Every hook runs under
// one lock, so calls never overlap.
type Hooks struct {
	// Trial receives each trial's result, in completion order.
	Trial func(cell int, r TrialResult)
	// Perf receives each probe's result.
	Perf func(config int, r PerfResult)
	// Progress receives a cell's completed trial count at a coarse throttle
	// (about ten calls per cell, always including the last). Per cell, done
	// rises strictly and ends at the cell's Count.
	Progress func(cell, done int)
}

// cellRun is a cell's per-execution state.
type cellRun struct {
	seeds    []int64
	params   attack.Params
	done     int
	reported int
	step     int
}

// progressHooks adapts a sweep's staged progress callback (nil = none) to
// Hooks: each cell reports under its Stage label, out of its Count.
func (p *Plan) progressHooks(progress func(stage string, done, total int)) Hooks {
	if progress == nil {
		return Hooks{}
	}
	return Hooks{Progress: func(cell, done int) {
		c := p.Cells[cell]
		progress(c.Stage(), done, c.Count)
	}}
}

// poolWorker is one executor goroutine's machine. It keeps one engine for
// the configuration it is working on, resetting it between that
// configuration's trials and for its probe, and drops it on moving to the
// next configuration, so at most one engine per worker is live.
// Engine.Reset is pinned bit-identical to fresh construction by the
// coherence oracle tests, so reuse cannot perturb results.
type poolWorker struct {
	config int
	eng    *coherence.Engine
}

// engine returns the worker's machine for configuration ci reset to seed.
func (w *poolWorker) engine(p *Plan, ci int, seed int64) (*coherence.Engine, error) {
	if w.eng != nil && w.config == ci {
		return w.eng, w.eng.Reset(seed)
	}
	w.eng = nil
	e, err := coherence.NewEngine(p.Configs[ci].Config.WithSeed(seed))
	if err != nil {
		return nil, err
	}
	w.eng, w.config = e, ci
	return e, nil
}

// Execute runs every unit of p on Base.Workers goroutines pulling from one
// atomic cursor, and returns the results. It observes one
// leakage/trial_micros sample per trial and one leakage/perf_micros sample
// per probe. The context cancels between trials and inside probes.
func (p *Plan) Execute(ctx context.Context, h Hooks) (*Results, error) {
	reg := p.Base.Metrics
	trialsTotal := reg.Counter("leakage/trials_total")
	trialErrs := reg.Counter("leakage/trial_errors_total")
	trialMicros := reg.Histogram("leakage/trial_micros")
	perfMicros := reg.Histogram("leakage/perf_micros")

	res := &Results{Trials: make([][]TrialResult, len(p.Cells)), Perf: make([]PerfResult, len(p.Configs))}
	runs := make([]cellRun, len(p.Cells))
	for i, c := range p.Cells {
		res.Trials[i] = make([]TrialResult, c.Count)
		runs[i] = cellRun{seeds: trialSeeds(c.Opts.Seed, c.Opts.Trials), params: attackParams(c.Opts), step: max(1, c.Count/10)}
	}

	var mu sync.Mutex // serializes hooks and progress accounting
	var next atomic.Int64
	var failed atomic.Bool
	var firstErr error
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
		failed.Store(true)
	}

	runUnit := func(w *poolWorker, u Unit) error {
		if u.Perf() {
			pc := p.Configs[u.Config]
			t0 := time.Now()
			e, err := w.engine(p, u.Config, probeSeed)
			var r PerfResult
			if err == nil {
				r, err = perfCost(ctx, e, pc, p.PerfAccesses)
			}
			if err != nil {
				return fmt.Errorf("leakage: %s performance probe: %w", pc.Name, err)
			}
			perfMicros.Observe(uint64(time.Since(t0).Microseconds()))
			mu.Lock()
			res.Perf[u.Config] = r
			if h.Perf != nil {
				h.Perf(u.Config, r)
			}
			mu.Unlock()
			return nil
		}
		c := &p.Cells[u.Cell]
		run := &runs[u.Cell]
		for idx := u.Start; idx < u.Start+u.Count; idx++ {
			if ctx.Err() != nil || failed.Load() {
				return nil
			}
			t0 := time.Now()
			e, err := w.engine(p, u.Config, run.seeds[idx])
			if err != nil {
				trialErrs.Inc()
				return err
			}
			out, err := runTrial(c.Opts, run.params, run.seeds[idx], e)
			if err != nil {
				trialErrs.Inc()
				return fmt.Errorf("leakage: %s: %w", c.Stage(), err)
			}
			tr := TrialResult{Index: idx, Active: out.active, Idle: out.idle, Accesses: out.accesses}
			res.Trials[u.Cell][idx-c.Start] = tr
			trialsTotal.Inc()
			trialMicros.Observe(uint64(time.Since(t0).Microseconds()))
			mu.Lock()
			if h.Trial != nil {
				h.Trial(u.Cell, tr)
			}
			run.done++
			if h.Progress != nil && (run.done-run.reported >= run.step || run.done == c.Count) {
				run.reported = run.done
				h.Progress(u.Cell, run.done)
			}
			mu.Unlock()
		}
		return nil
	}

	workers := min(p.Base.Workers, len(p.Units))
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var w poolWorker
			for {
				i := int(next.Add(1) - 1)
				if i >= len(p.Units) || ctx.Err() != nil || failed.Load() {
					return
				}
				if err := runUnit(&w, p.Units[i]); err != nil {
					fail(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return res, nil
}

// perfCost runs the deterministic performance probe on e, a machine of pc
// freshly reset to probeSeed: a fixed-seed uniform mixed workload (the bench
// harness's geometry), warm-up then measured loop, reporting the mean
// simulated access latency in nanoseconds at 2 GHz alongside the Table 7
// cost model. The latency model is cycle-deterministic, so the result
// depends only on the configuration.
func perfCost(ctx context.Context, e *coherence.Engine, pc PlanConfig, accesses int) (PerfResult, error) {
	gen := trace.NewUniform(1<<24, 64<<10, 0.25, 0, probeSeed)
	mask := pc.Config.Cores - 1
	for i := 0; i < accesses; i++ { // warm-up: fills and migrations settle
		if i&ctxCheckMask == 0 && ctx.Err() != nil {
			return PerfResult{}, ctx.Err()
		}
		a := gen.Next()
		e.Access(i&mask, a.Line, a.Write)
	}
	var cycles uint64
	for i := 0; i < accesses; i++ {
		if i&ctxCheckMask == 0 && ctx.Err() != nil {
			return PerfResult{}, ctx.Err()
		}
		a := gen.Next()
		cycles += uint64(e.Access(i&mask, a.Line, a.Write).Latency)
	}
	r := PerfResult{SimNsAccess: float64(cycles) / float64(accesses) / 2.0}
	if storage, banks, ok := area.DefenseStorage(pc.Name, pc.Config.Cores); ok {
		r.StorageKB = area.KB(storage.Total())
		r.AreaMM2 = area.AreaMM2(r.StorageKB, banks)
	}
	return r, nil
}

// Report merges a report plan's results into its Report, one verdict per
// cell in plan order. Every cell must carry all of its trials.
func (p *Plan) Report(r *Results) (*Report, error) {
	rep := &Report{Trials: p.Base.Trials, Rounds: p.Base.Rounds, Seed: p.Base.Seed, Confidence: p.Base.Confidence}
	for i, c := range p.Cells {
		v, err := MergeVerdict(c.Opts, r.Trials[i])
		if err != nil {
			return nil, fmt.Errorf("leakage: %s: %w", c.Stage(), err)
		}
		rep.Verdicts = append(rep.Verdicts, v)
	}
	return rep, nil
}

// Leaderboard merges a leaderboard plan's results: every cell's verdict
// joined with its configuration's probe result, in plan order.
func (p *Plan) Leaderboard(r *Results) (*Leaderboard, error) {
	rep, err := p.Report(r)
	if err != nil {
		return nil, err
	}
	lb := &Leaderboard{Trials: rep.Trials, Rounds: rep.Rounds, Seed: rep.Seed}
	for i, v := range rep.Verdicts {
		lb.Rows = append(lb.Rows, LeaderboardRow{Verdict: v, PerfResult: r.Perf[p.Cells[i].Config]})
	}
	return lb, nil
}
