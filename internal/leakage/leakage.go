package leakage

import (
	"context"
	"fmt"
	"math"
	"runtime"

	"secdir/internal/attack"
	"secdir/internal/coherence"
	"secdir/internal/config"
	"secdir/internal/metrics"
	"secdir/internal/rng"
	"secdir/internal/stats"
)

// TVLAThreshold is the |t| above which a configuration is declared leaking,
// the standard Test Vector Leakage Assessment criterion (Goodwill et al.):
// |t| > 4.5 corresponds to α < 10⁻⁵ even at modest degrees of freedom.
const TVLAThreshold = 4.5

// tCap bounds |t| in a Verdict. A noise-free simulator can produce two
// exactly-constant distributions with distinct means, for which Welch's t
// diverges; encoding/json cannot represent ±Inf, so the verdict reports a
// finite sentinel far beyond any threshold instead.
const tCap = 1e6

// capacityBins is the histogram width of the plug-in mutual-information
// estimate. 16 cells keep the estimator's O((bins-1)/N) bias below ~0.1 bit
// at the default trial counts while still resolving multi-modal observables.
const capacityBins = 16

// Options configures one Monte-Carlo leakage measurement: Trials independent
// machines, each running Rounds attack rounds under a balanced random
// victim-active/victim-idle schedule.
type Options struct {
	// Config is the machine under test (its Seed is overridden per trial).
	Config config.Config
	// ConfigName labels the configuration in the Verdict (e.g. "secdir").
	ConfigName string
	// Strategy is the attack to quantify.
	Strategy Strategy
	// Trials is the number of independently seeded machines (default 200).
	Trials int
	// Rounds is the attack rounds per trial, split evenly between
	// victim-active and victim-idle (default 16; forced even).
	Rounds int
	// EvictionLines overrides the strategy's default conflict-set size.
	EvictionLines int
	// Workers is the trial-runner fan-out (default GOMAXPROCS).
	Workers int
	// Seed pins the whole measurement: trial seeds, round schedules and
	// bootstrap resamples all derive from it (default 1).
	Seed int64
	// Confidence is the bootstrap interval level (default 0.99).
	Confidence float64
	// Resamples is the bootstrap replicate count (default 400).
	Resamples int
	// Metrics receives leakage counters/histograms; nil is a no-op registry.
	Metrics *metrics.Registry
	// Progress, when non-nil, is called with completed-trial counts at a
	// coarse throttle (≈10 updates per run, always including the final one).
	// It may be called from the trial workers' goroutines.
	Progress func(done, total int)
}

// Upper bounds on the Options fields that size allocations. They sit far
// above any measurement the lab makes (the floodreload default eviction set
// is 40 000 lines, the golden sweeps 200 trials of 128 rounds) and keep an
// untrusted job spec or shard request from asking for more memory than the
// host has.
const (
	MaxTrials        = 1 << 20
	MaxRounds        = 1 << 16
	MaxResamples     = 1 << 20
	MaxEvictionLines = 1 << 20
)

// Validate checks o, with defaults applied, against the Max bounds.
func (o Options) Validate() error {
	o = o.withDefaults()
	switch {
	case o.Trials > MaxTrials:
		return fmt.Errorf("leakage: trials %d exceeds the maximum %d", o.Trials, MaxTrials)
	case o.Rounds > MaxRounds:
		return fmt.Errorf("leakage: rounds %d exceeds the maximum %d", o.Rounds, MaxRounds)
	case o.Resamples > MaxResamples:
		return fmt.Errorf("leakage: resamples %d exceeds the maximum %d", o.Resamples, MaxResamples)
	case o.EvictionLines < 0 || o.EvictionLines > MaxEvictionLines:
		return fmt.Errorf("leakage: eviction lines %d outside [0,%d]", o.EvictionLines, MaxEvictionLines)
	}
	return nil
}

// withDefaults fills unset Options fields.
func (o Options) withDefaults() Options {
	if o.Trials <= 0 {
		o.Trials = 200
	}
	if o.Rounds <= 0 {
		o.Rounds = 16
	}
	if o.Rounds%2 != 0 {
		o.Rounds++
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Confidence <= 0 || o.Confidence >= 1 {
		o.Confidence = 0.99
	}
	if o.Resamples <= 0 {
		o.Resamples = 400
	}
	return o
}

// Verdict is the statistical outcome of one (configuration, strategy)
// measurement. The distributions under test are the per-trial mean
// observables of the victim-active and victim-idle round halves.
type Verdict struct {
	// Config names the configuration measured (e.g. "skylake-unfixed").
	Config string `json:"config"`
	// Strategy names the attack measured (e.g. "primeprobe").
	Strategy string `json:"strategy"`
	// Trials is the number of independent machines measured.
	Trials int `json:"trials"`
	// Rounds is the attack rounds per trial.
	Rounds int `json:"rounds"`
	// ActiveMean is the grand mean observable over victim-active rounds.
	ActiveMean float64 `json:"active_mean"`
	// IdleMean is the grand mean observable over victim-idle rounds.
	IdleMean float64 `json:"idle_mean"`
	// TStat is Welch's t between the two per-trial mean distributions,
	// capped at ±1e6 (a noise-free channel diverges).
	TStat float64 `json:"t_stat"`
	// DF is the Welch–Satterthwaite degrees of freedom.
	DF float64 `json:"df"`
	// CapacityBits is the plug-in mutual-information estimate between the
	// victim-activity bit and the per-trial observable, in bits per trial.
	CapacityBits float64 `json:"capacity_bits"`
	// AUC is the distinguisher's ROC area (0.5 = chance).
	AUC float64 `json:"auc"`
	// AUCLo and AUCHi bound AUC at the Confidence level (seeded bootstrap).
	AUCLo float64 `json:"auc_lo"`
	AUCHi float64 `json:"auc_hi"`
	// Confidence is the bootstrap interval level.
	Confidence float64 `json:"confidence"`
	// Leak reports the TVLA verdict: |TStat| > 4.5.
	Leak bool `json:"leak"`
	// Accesses totals the simulated memory accesses across all trials.
	Accesses uint64 `json:"accesses"`
}

// String renders the verdict as one human-readable line.
func (v Verdict) String() string {
	verdict := "NO-LEAK"
	if v.Leak {
		verdict = "LEAK"
	}
	return fmt.Sprintf("%s/%s: %s |t|=%.2f capacity=%.3f bits AUC=%.3f [%.3f,%.3f]@%v%%",
		v.Config, v.Strategy, verdict, math.Abs(v.TStat), v.CapacityBits,
		v.AUC, v.AUCLo, v.AUCHi, v.Confidence*100)
}

// trialOut is one trial's contribution to the two sample distributions.
type trialOut struct {
	active, idle float64
	accesses     uint64
}

// Run executes the Monte-Carlo measurement described by o and returns its
// Verdict. Each trial runs on a machine built from o.Config (or reset in
// place, which is bit-identical) with a trial-specific seed, mounts the
// strategy's driver, and runs a balanced random schedule of victim-active
// and victim-idle rounds; the trial's two half-means are one observation
// each in the distributions the verdict statistics are computed over.
// Deterministic for fixed Options (including Workers — the fan-out only
// changes scheduling, not results). Run is the single-shard case of
// RunShard + MergeVerdict; the distributed fleet drives the same pair over
// partial trial ranges.
func Run(ctx context.Context, o Options) (Verdict, error) {
	p, err := PlanShard(o, 0, o.withDefaults().Trials)
	if err != nil {
		return Verdict{}, err
	}
	var h Hooks
	if o.Progress != nil {
		h.Progress = func(_, done int) { o.Progress(done, p.Base.Trials) }
	}
	res, err := p.Execute(ctx, h)
	if err != nil {
		return Verdict{}, err
	}
	return MergeVerdict(p.Base, res.Trials[0])
}

// runTrial executes one independent trial on e, a machine freshly reset to
// the trial seed: fresh driver, one balanced shuffled schedule, and returns
// the two half-means.
func runTrial(o Options, params attack.Params, seed int64, e *coherence.Engine) (trialOut, error) {
	d, err := o.Strategy.NewDriver(e, params)
	if err != nil {
		return trialOut{}, err
	}

	// Balanced random schedule: exactly Rounds/2 active rounds in a seeded
	// Fisher-Yates order, so ordering effects (warm-up, replacement drift)
	// cannot masquerade as victim activity.
	sched := make([]bool, o.Rounds)
	for i := 0; i < o.Rounds/2; i++ {
		sched[i] = true
	}
	sr := rng.New(seed ^ 0x5eed)
	for i := len(sched) - 1; i > 0; i-- {
		j := sr.Intn(i + 1)
		sched[i], sched[j] = sched[j], sched[i]
	}

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

	var res trialOut
	if nA > 0 {
		res.active = sumA / float64(nA)
	}
	if nI > 0 {
		res.idle = sumI / float64(nI)
	}
	for _, cs := range e.Stats().Core {
		res.accesses += cs.Accesses
	}
	return res, nil
}

// mean returns the arithmetic mean of x (0 for an empty slice).
func mean(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range x {
		s += v
	}
	return s / float64(len(x))
}

// verdict computes the statistics over the two per-trial mean distributions.
func verdict(o Options, active, idle []float64, accesses uint64) Verdict {
	t, df := stats.WelchT(active, idle)
	if math.IsInf(t, 1) || t > tCap {
		t = tCap
	}
	if math.IsInf(t, -1) || t < -tCap {
		t = -tCap
	}
	auc := stats.AUC(active, idle)
	lo, hi := stats.BootstrapCI2(active, idle, stats.AUC, o.Resamples, o.Confidence, o.Seed+1)
	return Verdict{
		Config:       o.ConfigName,
		Strategy:     o.Strategy.Name(),
		Trials:       o.Trials,
		Rounds:       o.Rounds,
		ActiveMean:   mean(active),
		IdleMean:     mean(idle),
		TStat:        t,
		DF:           df,
		CapacityBits: stats.MutualInformation(active, idle, capacityBins),
		AUC:          auc,
		AUCLo:        lo,
		AUCHi:        hi,
		Confidence:   o.Confidence,
		Leak:         math.Abs(t) > TVLAThreshold,
		Accesses:     accesses,
	}
}
