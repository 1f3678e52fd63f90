package leakage

import (
	"context"
	"fmt"

	"secdir/internal/attack"
	"secdir/internal/rng"
	"secdir/internal/trace"
)

// This file is the leakage lab's sharding surface: the hooks the distributed
// trial fleet (internal/fleet) builds on. A measurement's trials are
// independently seeded from (Options.Seed, trial index) alone, so any
// partition of [0, Trials) into contiguous shards — run by any number of
// workers, on any machines, in any order — merges back into the exact
// per-trial arrays a single-process Run would have produced, and therefore
// into a bit-identical Verdict.

// TrialResult is one trial's contribution to a measurement, keyed by the
// trial's index in the master seeding order. It is the unit workers stream
// back to a fleet coordinator as NDJSON.
type TrialResult struct {
	// Index is the trial's position in [0, Options.Trials).
	Index int `json:"index"`
	// Active is the trial's victim-active half-mean observable.
	Active float64 `json:"active"`
	// Idle is the trial's victim-idle half-mean observable.
	Idle float64 `json:"idle"`
	// Accesses counts the trial's simulated memory accesses.
	Accesses uint64 `json:"accesses"`
}

// Normalized returns o with every unset field defaulted — the exact
// parameters a Run with these Options would use. A fleet coordinator
// normalizes once and ships the resulting primitive fields to workers, so
// worker-side defaulting cannot diverge from the verdict's.
func (o Options) Normalized() Options { return o.withDefaults() }

// trialSeeds derives every trial's seed up front from the master seed, so
// results do not depend on which worker — local goroutine or remote process —
// claims which trial.
func trialSeeds(seed int64, trials int) []int64 {
	r := rng.New(seed)
	seeds := make([]int64, trials)
	for i := range seeds {
		seeds[i] = int64(r.Uint64())
	}
	return seeds
}

// attackParams builds the attack geometry every trial of a measurement
// shares: victim on core 0, every other core attacking the first T0 line.
func attackParams(o Options) attack.Params {
	p := attack.Params{
		Victim:        0,
		Attackers:     make([]int, 0, o.Config.Cores-1),
		Target:        trace.T0Lines()[0],
		EvictionLines: o.EvictionLines,
	}
	for c := 1; c < o.Config.Cores; c++ {
		p.Attackers = append(p.Attackers, c)
	}
	return p
}

// RunShard executes trials [start, start+count) of the measurement o
// describes, fanning out over o.Workers goroutines, and returns their
// results ordered by trial index. emit, when non-nil, is called serially
// (under an internal lock) as each trial completes, in completion order —
// the hook a worker's NDJSON stream writes from. The full measurement is
// RunShard(ctx, o, 0, o.Trials, nil); any partition of that range merges
// back losslessly through MergeVerdict.
func RunShard(ctx context.Context, o Options, start, count int, emit func(TrialResult)) ([]TrialResult, error) {
	p, err := PlanShard(o, start, count)
	if err != nil || count == 0 {
		return nil, err
	}
	var h Hooks
	if emit != nil {
		h.Trial = func(_ int, tr TrialResult) { emit(tr) }
	}
	res, err := p.Execute(ctx, h)
	if err != nil {
		return nil, err
	}
	return res.Trials[0], nil
}

// MergeVerdict reassembles a complete set of per-trial results — every index
// in [0, Trials) exactly once, in any order — into the measurement's Verdict.
// The statistics are computed over index-ordered arrays, so the outcome is
// bit-identical to a single-process Run regardless of how the trials were
// partitioned across shards or workers. A missing, duplicate, or
// out-of-range index is an error: a coordinator must never synthesize a
// verdict from a lossy merge.
func MergeVerdict(o Options, results []TrialResult) (Verdict, error) {
	if err := o.Validate(); err != nil {
		return Verdict{}, err
	}
	o = o.withDefaults()
	if o.Strategy == nil {
		return Verdict{}, fmt.Errorf("leakage: Options.Strategy is nil")
	}
	if len(results) != o.Trials {
		return Verdict{}, fmt.Errorf("leakage: merge has %d trial results, want %d", len(results), o.Trials)
	}
	active := make([]float64, o.Trials)
	idle := make([]float64, o.Trials)
	seen := make([]bool, o.Trials)
	for _, r := range results {
		if r.Index < 0 || r.Index >= o.Trials {
			return Verdict{}, fmt.Errorf("leakage: merge: trial index %d outside [0,%d)", r.Index, o.Trials)
		}
		if seen[r.Index] {
			return Verdict{}, fmt.Errorf("leakage: merge: duplicate result for trial %d", r.Index)
		}
		seen[r.Index] = true
		active[r.Index] = r.Active
		idle[r.Index] = r.Idle
	}
	var accesses uint64
	for _, r := range results {
		accesses += r.Accesses
	}
	return verdict(o, active, idle, accesses), nil
}
