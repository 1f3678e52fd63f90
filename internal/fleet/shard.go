package fleet

import (
	"strings"

	"secdir/internal/leakage"
)

// SweepKind selects what a fleet sweep produces.
type SweepKind string

const (
	// SweepLeak merges into a leakage.Report (the configs×strategies grid).
	SweepLeak SweepKind = "leak"
	// SweepLeaderboard merges into a leakage.Leaderboard (verdicts joined
	// with the worker-computed performance and cost columns).
	SweepLeaderboard SweepKind = "leaderboard"
)

// SweepSpec describes one distributed sweep — the fleet-facing mirror of the
// server's leak/leaderboard JobSpec. Zero fields default exactly as their
// single-process counterparts (leakage.RunReport / leakage.RunLeaderboard)
// do, so a fleet run of an unmodified spec reproduces the local result
// bit-for-bit.
type SweepSpec struct {
	// Kind selects the merge shape (default SweepLeak).
	Kind SweepKind
	// Configs are the configuration names to sweep (defaults: the report's
	// canonical trio, or the leaderboard roster).
	Configs []string
	// Strategies are the attack names (defaults: the report's default
	// suite, or the leaderboard pair).
	Strategies []string
	// Cores is the simulated machine size (default 8).
	Cores int
	// Trials, Rounds, EvictionLines and Seed are forwarded to every cell's
	// Options (zero means that field's leakage default).
	Trials        int
	Rounds        int
	EvictionLines int
	Seed          int64
	// Confidence and Resamples shape the AUC bootstrap of leak sweeps
	// (leaderboard sweeps always use the leakage defaults, as
	// RunLeaderboard does).
	Confidence float64
	Resamples  int
	// PerfAccesses sizes the leaderboard's deterministic latency probe
	// (default 100k).
	PerfAccesses int
}

// plan expands the sweep into its leakage.Plan, trial units of at most
// chunk trials each.
func (s SweepSpec) plan(chunk int) (*leakage.Plan, error) {
	strategies := make([]leakage.Strategy, 0, len(s.Strategies))
	for _, name := range s.Strategies {
		st, err := leakage.ParseStrategy(name)
		if err != nil {
			return nil, err
		}
		strategies = append(strategies, st)
	}
	if s.Kind == SweepLeaderboard {
		return leakage.PlanLeaderboard(leakage.LeaderboardOptions{
			Configs:       s.Configs,
			Strategies:    strategies,
			Cores:         s.Cores,
			Trials:        s.Trials,
			Rounds:        s.Rounds,
			EvictionLines: s.EvictionLines,
			Seed:          s.Seed,
			PerfAccesses:  s.PerfAccesses,
		}, chunk)
	}
	return leakage.PlanReport(leakage.ReportOptions{
		Configs:       s.Configs,
		Strategies:    strategies,
		Cores:         s.Cores,
		Trials:        s.Trials,
		Rounds:        s.Rounds,
		EvictionLines: s.EvictionLines,
		Seed:          s.Seed,
		Confidence:    s.Confidence,
		Resamples:     s.Resamples,
	}, chunk)
}

// ShardRequest is the body of POST /fleet/shard: one unit of a sweep's
// leakage.Plan — a contiguous trial range of one (config, strategy) cell,
// or, with Perf set, one configuration's performance probe. Every sampling
// parameter arrives normalized by the coordinator, so worker-side
// defaulting cannot diverge from the merge's.
type ShardRequest struct {
	// Config names the configuration under test (leakage.ParseConfig).
	Config string `json:"config"`
	// Strategy names the attack (leakage.ParseStrategy).
	Strategy string `json:"strategy"`
	// Cores is the simulated machine size.
	Cores int `json:"cores"`
	// Trials is the cell's TOTAL trial count — the seeding space — not this
	// shard's share of it.
	Trials int `json:"trials"`
	// Rounds is the attack rounds per trial.
	Rounds int `json:"rounds"`
	// EvictionLines overrides the strategy's conflict-set size (0 = default).
	EvictionLines int `json:"eviction_lines,omitempty"`
	// Seed is the cell's master seed.
	Seed int64 `json:"seed"`
	// Start and Count delimit this shard's trial index range
	// [Start, Start+Count).
	Start int `json:"start"`
	// Count is the number of trials in the shard.
	Count int `json:"count"`
	// Workers bounds the executing worker's local trial fan-out
	// (0 = its GOMAXPROCS).
	Workers int `json:"workers,omitempty"`
	// Perf asks for the configuration's performance probe instead of
	// trials; only Config, Cores and PerfAccesses apply.
	Perf bool `json:"perf,omitempty"`
	// PerfAccesses is the probe's measured-loop length (0 = default, at
	// most leakage.MaxPerfAccesses).
	PerfAccesses int `json:"perf_accesses,omitempty"`
}

// shardRequest is the wire form of unit u of plan p.
func shardRequest(p *leakage.Plan, u leakage.Unit, localWorkers int) ShardRequest {
	pc := p.Configs[u.Config]
	if u.Perf() {
		return ShardRequest{Config: pc.Name, Cores: pc.Config.Cores, Perf: true, PerfAccesses: p.PerfAccesses}
	}
	o := p.Cells[u.Cell].Opts
	return ShardRequest{
		Config:        pc.Name,
		Strategy:      o.Strategy.Name(),
		Cores:         pc.Config.Cores,
		Trials:        o.Trials,
		Rounds:        o.Rounds,
		EvictionLines: o.EvictionLines,
		Seed:          o.Seed,
		Start:         u.Start,
		Count:         u.Count,
		Workers:       localWorkers,
	}
}

// Options builds the leakage Options the request describes, validated and
// normalized.
func (r ShardRequest) Options() (leakage.Options, error) {
	cfg, err := leakage.ParseConfig(r.Config, r.Cores)
	if err != nil {
		return leakage.Options{}, err
	}
	strat, err := leakage.ParseStrategy(r.Strategy)
	if err != nil {
		return leakage.Options{}, err
	}
	o := leakage.Options{
		Config:        cfg,
		ConfigName:    r.Config,
		Strategy:      strat,
		Trials:        r.Trials,
		Rounds:        r.Rounds,
		EvictionLines: r.EvictionLines,
		Workers:       r.Workers,
		Seed:          r.Seed,
	}
	if err := o.Validate(); err != nil {
		return leakage.Options{}, err
	}
	return o.Normalized(), nil
}

// Plan builds the one-unit leakage.Plan the request describes, validated:
// the probe's plan for a perf request, the trial range's otherwise.
func (r ShardRequest) Plan() (*leakage.Plan, error) {
	if r.Perf {
		return leakage.PlanPerf(r.Config, r.Cores, r.PerfAccesses)
	}
	o, err := r.Options()
	if err != nil {
		return nil, err
	}
	return leakage.PlanShard(o, r.Start, r.Count)
}

// ShardLine is one NDJSON line of a shard response stream: a trial result,
// a probe result, a fatal error, or the terminal EOF marker whose Count lets
// the coordinator detect a truncated stream (a worker killed mid-shard).
type ShardLine struct {
	// Trial is one completed trial, in completion order.
	Trial *leakage.TrialResult `json:"trial,omitempty"`
	// Perf is a perf request's one probe result.
	Perf *leakage.PerfResult `json:"perf,omitempty"`
	// Err aborts the stream with a worker-side failure.
	Err string `json:"error,omitempty"`
	// EOF marks a complete stream; Count must equal the trials streamed.
	EOF bool `json:"eof,omitempty"`
	// Count is the number of trial lines that preceded the EOF marker.
	Count int `json:"count,omitempty"`
}

// RegisterRequest is the body of POST /fleet/register: a worker announcing
// (or re-announcing — registration doubles as the heartbeat) itself to a
// coordinator.
type RegisterRequest struct {
	// URL is the worker's externally reachable base URL.
	URL string `json:"url"`
	// Workers is the worker's job-pool width, informational.
	Workers int `json:"workers,omitempty"`
}

// RegisterResponse tells the worker how often to re-register.
type RegisterResponse struct {
	// IntervalMS is the coordinator's heartbeat interval in milliseconds.
	IntervalMS int64 `json:"interval_ms"`
}

// ShardProvenance records which worker's result was accepted for one shard of
// a sweep — the merge provenance RunLeak/RunLeaderboard hand back alongside
// the merged result, so callers (the server's run ledger) can record exactly
// how a distributed result was assembled and by whom.
type ShardProvenance struct {
	// Cell is the shard's (config, strategy) stage label, "config/strategy",
	// or a probe's configuration name.
	Cell string `json:"cell"`
	// Perf marks a performance probe.
	Perf bool `json:"perf,omitempty"`
	// Start and Count delimit the shard's trial index range
	// [Start, Start+Count) within the cell.
	Start int `json:"start"`
	// Count is the number of trials the shard carried.
	Count int `json:"count"`
	// Worker is the URL of the worker whose result won (steal-race losers are
	// discarded and never appear here).
	Worker string `json:"worker"`
	// Attempts counts the dispatches charged against the shard's attempt
	// budget before it completed (retries after genuine failures; steal
	// duplicates and reaper requeues are refunded).
	Attempts int `json:"attempts"`
	// Millis is the accepted dispatch's wall-clock duration.
	Millis int64 `json:"millis"`
}

// normalizeWorkerURL canonicalizes a worker base URL for map identity.
func normalizeWorkerURL(u string) string {
	u = strings.TrimSpace(u)
	u = strings.TrimRight(u, "/")
	return u
}
