// Package fleet scales the leakage lab from one process to a coordinator and
// N secdir-serve workers. A leak or leaderboard sweep is embarrassingly
// parallel — (config × strategy × trial), plus one performance probe per
// leaderboard defense — and the lab's trials are seeded from (master seed,
// trial index) alone, so the coordinator expands a sweep into the same
// leakage.Plan a local run executes, dispatches its units (contiguous trial
// ranges and probes) to any set of workers over the existing HTTP/JSON +
// NDJSON protocol, and merges the streams back through Plan.Report or
// Plan.Leaderboard into a result bit-identical to a single-process run. The
// coordinator itself runs no simulation.
//
// Robustness is the point of the package:
//
//   - per-shard wall-clock timeouts with exponential-backoff retry,
//   - re-enqueue of shards held by workers that die or miss heartbeats,
//   - work-stealing rebalance: an idle worker duplicates the oldest
//     in-flight shard of a straggler and the first result wins,
//   - graceful drain that lets in-flight shards finish.
//
// Workers are plain secdir-serve processes: every server exposes the
// POST /fleet/shard execution endpoint. A coordinator is a secdir-serve
// started with -coordinator; it learns its fleet from the static
// -fleet-workers list and from dynamic POST /fleet/register heartbeats, and
// reports per-worker liveness at GET /fleet/workerz.
package fleet

import (
	"net/http"
	"time"

	"secdir/internal/metrics"
)

// Config shapes a Coordinator. The zero value of every field is a usable
// default; Workers may be empty when the fleet is populated dynamically via
// Register.
type Config struct {
	// Workers are the static worker base URLs ("http://host:port") known at
	// start-up. More workers can join at runtime via Register (the
	// /fleet/register endpoint).
	Workers []string
	// ShardTrials is the trial count per dispatched trial shard (default
	// 25); a probe is always one shard.
	// Smaller shards ride out worker loss more cheaply; larger shards
	// amortize HTTP overhead.
	ShardTrials int
	// MaxInflight bounds the shards concurrently in flight per worker
	// (default 2: one executing, one queued behind the worker's pool).
	MaxInflight int
	// MaxAttempts bounds the genuine-failure dispatch attempts per shard
	// before the sweep fails (default 4). Re-enqueues caused by worker death
	// or losing a steal race do not count against the budget.
	MaxAttempts int
	// BackoffBase and BackoffMax shape the exponential retry backoff:
	// attempt n waits min(BackoffBase << (n-1), BackoffMax)
	// (defaults 100ms and 5s).
	BackoffBase time.Duration
	// BackoffMax caps the exponential backoff.
	BackoffMax time.Duration
	// ShardTimeout is the per-attempt wall-clock budget of one shard call
	// (default 5m). It runs on the wall clock, not Config.Clock.
	ShardTimeout time.Duration
	// HeartbeatInterval is the liveness probe cadence and the re-register
	// cadence handed to dynamic workers (default 2s).
	HeartbeatInterval time.Duration
	// HeartbeatMiss is how many intervals a worker may go unseen before it
	// is declared dead and its in-flight shards are re-enqueued (default 3).
	HeartbeatMiss int
	// StealAfter is how long a shard may sit in flight on one worker while
	// another sits idle before the coordinator duplicates it onto the idle
	// worker (default 30s). The first result wins; the loser is discarded.
	StealAfter time.Duration
	// LocalWorkers overrides each shard's worker-local trial fan-out
	// (0 = the executing worker's GOMAXPROCS). Results are invariant either
	// way; this only tunes worker CPU usage.
	LocalWorkers int
	// Clock drives backoff, steal aging and heartbeats (default wall clock).
	Clock Clock
	// Metrics receives the fleet gauges and counters (nil = private
	// registry): fleet/workers_known, fleet/workers_live,
	// fleet/shards_inflight, fleet/shards_dispatched, fleet/shards_retried,
	// fleet/shards_stolen, fleet/shards_requeued, fleet/shards_discarded,
	// fleet/shards_busy, fleet/shard_millis.
	Metrics *metrics.Registry
	// Client issues the worker HTTP calls (default a plain &http.Client{};
	// per-call deadlines come from ShardTimeout contexts).
	Client *http.Client
}

// withDefaults fills unset Config fields.
func (c Config) withDefaults() Config {
	if c.ShardTrials <= 0 {
		c.ShardTrials = 25
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = 2
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 4
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 100 * time.Millisecond
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = 5 * time.Second
	}
	if c.ShardTimeout <= 0 {
		c.ShardTimeout = 5 * time.Minute
	}
	if c.HeartbeatInterval <= 0 {
		c.HeartbeatInterval = 2 * time.Second
	}
	if c.HeartbeatMiss <= 0 {
		c.HeartbeatMiss = 3
	}
	if c.StealAfter <= 0 {
		c.StealAfter = 30 * time.Second
	}
	if c.Clock == nil {
		c.Clock = RealClock()
	}
	if c.Client == nil {
		c.Client = &http.Client{}
	}
	return c
}

// backoff returns the wait before retry attempt n (1-based): exponential
// from BackoffBase, capped at BackoffMax.
func (c Config) backoff(attempt int) time.Duration {
	d := c.BackoffBase
	for i := 1; i < attempt; i++ {
		d *= 2
		if d >= c.BackoffMax {
			return c.BackoffMax
		}
	}
	if d > c.BackoffMax {
		return c.BackoffMax
	}
	return d
}
