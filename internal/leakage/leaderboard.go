package leakage

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"

	"secdir/internal/metrics"
)

// LeaderboardNames lists the defenses the cross-defense leaderboard races, in
// canonical order: the vulnerable Skylake-X baseline as the reference, the
// paper's SecDir, then the four rival secure-directory designs.
var LeaderboardNames = []string{"skylake-unfixed", "secdir", "skewed", "dls", "tagpart", "ceaser"}

// LeaderboardStrategies names the default leaderboard attack roster: the two
// headline channels every defense faces.
var LeaderboardStrategies = []string{"primeprobe", "evictreload"}

// LeaderboardRow is one (defense, strategy) cell of the leaderboard: the
// leakage verdict joined with the defense's deterministic performance and
// hardware-cost estimates, which repeat across a defense's strategy rows.
type LeaderboardRow struct {
	Verdict
	PerfResult
}

// Leaderboard is the outcome of a cross-defense race.
type Leaderboard struct {
	Trials int              `json:"trials"`
	Rounds int              `json:"rounds"`
	Seed   int64            `json:"seed"`
	Rows   []LeaderboardRow `json:"rows"`
}

// LeaderboardOptions configures a cross-defense race.
type LeaderboardOptions struct {
	// Configs are the defense names to race (default LeaderboardNames).
	Configs []string
	// Strategies are the attacks each defense faces (default
	// primeprobe + evictreload, the two headline channels).
	Strategies []Strategy
	// Cores is the simulated core count (default 8).
	Cores int
	// Trials, Rounds, EvictionLines, Workers, Seed are forwarded to every
	// cell's Options (zero means that field's default).
	Trials        int
	Rounds        int
	EvictionLines int
	Workers       int
	Seed          int64
	// PerfAccesses is the measured-loop length of the simulated-latency
	// probe (default DefaultPerfAccesses, after an equal warm-up; at most
	// MaxPerfAccesses).
	PerfAccesses int
	// Metrics receives the leakage counters/histograms; nil is a no-op.
	Metrics *metrics.Registry
	// Progress, when non-nil, receives per-cell trial progress with a stage
	// label like "skewed/primeprobe". May run on worker goroutines.
	Progress func(stage string, done, total int)
}

// RunLeaderboard races every configured defense through the leakage lab and
// the deterministic performance probe, all on one worker pool of Workers
// goroutines (see Plan): each defense's probe overlaps the trials. Rows come
// out in (defense, strategy) order; results are reproducible for fixed
// options, including across worker counts.
func RunLeaderboard(ctx context.Context, o LeaderboardOptions) (*Leaderboard, error) {
	p, err := PlanLeaderboard(o, 1)
	if err != nil {
		return nil, err
	}
	res, err := p.Execute(ctx, p.progressHooks(o.Progress))
	if err != nil {
		return nil, err
	}
	return p.Leaderboard(res)
}

// PerfCost computes one defense's deterministic leaderboard columns: the
// simulated-latency probe (mean ns/access at 2 GHz over the fixed uniform
// workload) and the Table 7 cost model (per-slice storage KB and silicon
// mm²). It runs the probe alone, without a context; cores and perfAccesses
// <= 0 take their defaults.
func PerfCost(name string, cores, perfAccesses int) (simNs, storageKB, areaMM2 float64, err error) {
	p, err := PlanPerf(name, cores, max(perfAccesses, 0))
	if err != nil {
		return 0, 0, 0, err
	}
	res, err := p.Execute(context.Background(), Hooks{})
	if err != nil {
		return 0, 0, 0, err
	}
	r := res.Perf[0]
	return r.SimNsAccess, r.StorageKB, r.AreaMM2, nil
}

// CSV renders the leaderboard as a header plus one row per cell, the exact
// format pinned by data/leaderboard.csv.
func (l *Leaderboard) CSV() (head []string, rows [][]string) {
	head = []string{"defense", "strategy", "trials", "rounds", "t_stat",
		"capacity_bits", "auc", "auc_lo", "auc_hi", "leak",
		"sim_ns_access", "storage_kb", "area_mm2"}
	for _, r := range l.Rows {
		rows = append(rows, []string{
			r.Config, r.Strategy,
			fmt.Sprint(r.Trials), fmt.Sprint(r.Rounds),
			fmt.Sprintf("%.4f", r.TStat),
			fmt.Sprintf("%.4f", r.CapacityBits),
			fmt.Sprintf("%.4f", r.AUC), fmt.Sprintf("%.4f", r.AUCLo), fmt.Sprintf("%.4f", r.AUCHi),
			fmt.Sprint(r.Leak),
			fmt.Sprintf("%.3f", r.SimNsAccess),
			fmt.Sprintf("%.2f", r.StorageKB),
			fmt.Sprintf("%.4f", r.AreaMM2),
		})
	}
	return head, rows
}

// Text renders the leaderboard ranked by worst-case |t| per defense
// (most leaky first), with the performance and cost columns alongside.
func (l *Leaderboard) Text() string {
	type agg struct {
		worstT float64
		rows   []LeaderboardRow
	}
	byDef := map[string]*agg{}
	var order []*agg
	for _, r := range l.Rows {
		a := byDef[r.Config]
		if a == nil {
			a = &agg{}
			byDef[r.Config] = a
			order = append(order, a)
		}
		if t := math.Abs(r.TStat); t > a.worstT {
			a.worstT = t
		}
		a.rows = append(a.rows, r)
	}
	sort.SliceStable(order, func(i, j int) bool { return order[i].worstT > order[j].worstT })

	var b strings.Builder
	fmt.Fprintf(&b, "cross-defense leaderboard: %d trials x %d rounds, seed %d, TVLA |t|>%.1f\n",
		l.Trials, l.Rounds, l.Seed, TVLAThreshold)
	fmt.Fprintf(&b, "%-16s %-12s %9s %8s %8s %10s %10s %9s  %s\n",
		"DEFENSE", "STRATEGY", "|t|", "CAP/bits", "AUC", "ns/access", "KB/slice", "mm2", "VERDICT")
	for _, a := range order {
		for _, r := range a.rows {
			verdict := "NO-LEAK"
			if r.Leak {
				verdict = "LEAK"
			}
			fmt.Fprintf(&b, "%-16s %-12s %9.2f %8.3f %8.3f %10.3f %10.2f %9.4f  %s\n",
				r.Config, r.Strategy, math.Abs(r.TStat), r.CapacityBits, r.AUC,
				r.SimNsAccess, r.StorageKB, r.AreaMM2, verdict)
		}
	}
	return b.String()
}
