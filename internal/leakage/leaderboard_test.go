package leakage

import (
	"context"
	"math"
	"reflect"
	"testing"
)

// Leaderboard sampling parameters: lighter than the headline golden (six
// defenses × two strategies is twelve cells) but heavy enough that the
// baseline's channel clears TVLA by a wide margin at seed 1.
const (
	lbTrials  = 60
	lbRounds  = 32
	lbEvLines = 23
	lbSeed    = 1
)

// TestLeaderboardGolden pins the full cross-defense leaderboard —
// skylake-unfixed, secdir and the four rival designs raced through
// prime+probe and evict+reload, with the deterministic performance probe and
// the Table-7-model cost columns — to data/leaderboard.csv, and asserts the
// reference rows: the unfixed baseline leaks on both strategies, secdir on
// neither.
//
//	go test ./internal/leakage -run Leaderboard          # verify
//	go test ./internal/leakage -run Leaderboard -update  # regenerate
func TestLeaderboardGolden(t *testing.T) {
	lb, err := RunLeaderboard(context.Background(), LeaderboardOptions{
		Trials:        lbTrials,
		Rounds:        lbRounds,
		EvictionLines: lbEvLines,
		Seed:          lbSeed,
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * len(LeaderboardNames); len(lb.Rows) != want {
		t.Fatalf("got %d rows, want %d", len(lb.Rows), want)
	}
	for _, r := range lb.Rows {
		switch r.Config {
		case "skylake-unfixed":
			if !r.Leak {
				t.Errorf("%s/%s: |t|=%.2f — the unfixed baseline must LEAK",
					r.Config, r.Strategy, math.Abs(r.TStat))
			}
		case "secdir":
			if r.Leak {
				t.Errorf("%s/%s: |t|=%.2f — secdir must not leak",
					r.Config, r.Strategy, math.Abs(r.TStat))
			}
		}
		if r.SimNsAccess <= 0 {
			t.Errorf("%s: non-positive simulated latency %v", r.Config, r.SimNsAccess)
		}
		if r.StorageKB <= 0 || r.AreaMM2 <= 0 {
			t.Errorf("%s: missing cost estimate (%.2f KB, %.4f mm2)", r.Config, r.StorageKB, r.AreaMM2)
		}
	}
	head, rows := lb.CSV()
	checkGolden(t, "leaderboard.csv", head, rows)
}

// TestLeaderboardWorkerInvariance races two defenses through both headline
// strategies at 1, 2, 3 and 8 workers and requires bit-identical rows. The
// pool size changes which worker claims which unit — and so which engine is
// reset for which trials and probes — but must never change a result, or the
// committed golden would depend on the machine that generated it.
func TestLeaderboardWorkerInvariance(t *testing.T) {
	run := func(workers int) []LeaderboardRow {
		lb, err := RunLeaderboard(context.Background(), LeaderboardOptions{
			Configs:       []string{"skewed", "dls"},
			Trials:        20,
			Rounds:        16,
			EvictionLines: lbEvLines,
			Seed:          lbSeed,
			Workers:       workers,
			PerfAccesses:  20_000,
		})
		if err != nil {
			t.Fatal(err)
		}
		return lb.Rows
	}
	want := run(1)
	if len(want) != 4 {
		t.Fatalf("got %d rows, want 4 (2 defenses x 2 strategies)", len(want))
	}
	for _, workers := range []int{2, 3, 8} {
		if got := run(workers); !reflect.DeepEqual(got, want) {
			t.Fatalf("leaderboard rows depend on the worker count:\n 1 worker: %+v\n %d workers: %+v", want, workers, got)
		}
	}
}
