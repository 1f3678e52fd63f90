package leakage

import (
	"context"
	"fmt"
	"math"
	"strings"

	"secdir/internal/metrics"
)

// ReportOptions configures a full configuration×strategy comparison sweep.
type ReportOptions struct {
	// Configs are the configuration names to compare (default ConfigNames).
	Configs []string
	// Strategies are the attacks to quantify (default DefaultSuite).
	Strategies []Strategy
	// Cores is the simulated core count (default 8).
	Cores int
	// Trials, Rounds, EvictionLines, Workers, Seed, Confidence and Resamples
	// are forwarded to every cell's Options (zero means that field's default).
	Trials        int
	Rounds        int
	EvictionLines int
	Workers       int
	Seed          int64
	Confidence    float64
	Resamples     int
	// Metrics receives the leakage counters/histograms; nil is a no-op.
	Metrics *metrics.Registry
	// Progress, when non-nil, receives per-cell trial progress with a stage
	// label like "secdir/primeprobe". May run on worker goroutines.
	Progress func(stage string, done, total int)
}

// Report is the outcome of a sweep: one Verdict per (config, strategy) cell,
// in row-major order over ReportOptions.Configs × ReportOptions.Strategies.
type Report struct {
	// Trials and Rounds echo the per-cell sampling parameters.
	Trials int `json:"trials"`
	// Rounds is the attack rounds per trial.
	Rounds int `json:"rounds"`
	// Seed is the measurement's master seed.
	Seed int64 `json:"seed"`
	// Confidence is the bootstrap interval level of every cell.
	Confidence float64 `json:"confidence"`
	// Verdicts holds every cell's outcome.
	Verdicts []Verdict `json:"verdicts"`
}

// RunReport runs every (config, strategy) cell on one worker pool of
// Workers goroutines (see Plan) and assembles the Report, cells in
// row-major order. The context cancels between trials.
func RunReport(ctx context.Context, o ReportOptions) (*Report, error) {
	p, err := PlanReport(o, 1)
	if err != nil {
		return nil, err
	}
	res, err := p.Execute(ctx, p.progressHooks(o.Progress))
	if err != nil {
		return nil, err
	}
	return p.Report(res)
}

// Text renders the report as an aligned table with one row per cell and a
// LEAK/NO-LEAK verdict column.
func (r *Report) Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "leakage report: %d trials x %d rounds, seed %d, %v%% CIs, TVLA |t|>%.1f\n",
		r.Trials, r.Rounds, r.Seed, r.Confidence*100, TVLAThreshold)
	fmt.Fprintf(&b, "%-16s %-12s %9s %9s %9s %8s %8s %17s  %s\n",
		"CONFIG", "STRATEGY", "ACTIVE", "IDLE", "|t|", "CAP/bits", "AUC", "AUC-CI", "VERDICT")
	for _, v := range r.Verdicts {
		verdict := "NO-LEAK"
		if v.Leak {
			verdict = "LEAK"
		}
		fmt.Fprintf(&b, "%-16s %-12s %9.3f %9.3f %9.2f %8.3f %8.3f [%6.3f,%6.3f]  %s\n",
			v.Config, v.Strategy, v.ActiveMean, v.IdleMean, math.Abs(v.TStat),
			v.CapacityBits, v.AUC, v.AUCLo, v.AUCHi, verdict)
	}
	return b.String()
}

// CSV renders the report as a header plus one row per verdict, the exact
// format pinned by data/leakage_verdicts.csv. Shared by the golden test and
// the fleet determinism tests, which require the distributed merge to
// reproduce the committed file bit-for-bit.
func (r *Report) CSV() (head []string, rows [][]string) {
	head = []string{"config", "strategy", "trials", "rounds", "active_mean",
		"idle_mean", "t_stat", "df", "capacity_bits", "auc", "auc_lo", "auc_hi", "leak"}
	for _, v := range r.Verdicts {
		rows = append(rows, []string{
			v.Config, v.Strategy,
			fmt.Sprint(v.Trials), fmt.Sprint(v.Rounds),
			fmt.Sprintf("%.6f", v.ActiveMean), fmt.Sprintf("%.6f", v.IdleMean),
			fmt.Sprintf("%.4f", v.TStat), fmt.Sprintf("%.2f", v.DF),
			fmt.Sprintf("%.4f", v.CapacityBits),
			fmt.Sprintf("%.4f", v.AUC), fmt.Sprintf("%.4f", v.AUCLo), fmt.Sprintf("%.4f", v.AUCHi),
			fmt.Sprint(v.Leak),
		})
	}
	return head, rows
}

// Leaks returns the cells with a positive TVLA verdict.
func (r *Report) Leaks() []Verdict {
	var out []Verdict
	for _, v := range r.Verdicts {
		if v.Leak {
			out = append(out, v)
		}
	}
	return out
}

// Find returns the verdict for a (config, strategy) cell, if present.
func (r *Report) Find(configName, strategy string) (Verdict, bool) {
	for _, v := range r.Verdicts {
		if v.Config == configName && v.Strategy == strategy {
			return v, true
		}
	}
	return Verdict{}, false
}
