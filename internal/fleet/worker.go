package fleet

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"secdir/internal/leakage"
)

// errWorkerBusy marks a shard attempt the worker refused with HTTP 429 (all
// shard slots occupied). Busy refusals requeue with backoff but never count
// against a shard's MaxAttempts budget.
var errWorkerBusy = errors.New("fleet: worker busy")

// worker is the coordinator's view of one secdir-serve instance. All fields
// are guarded by the coordinator's mutex.
type worker struct {
	url    string
	static bool // configured at start-up; never pruned, only marked dead

	lastSeen  time.Time // last successful probe or registration
	inflight  int       // shards currently assigned
	poolWidth int       // reported pool width: caps dispatch concurrency when known

	done       uint64 // shards completed and accepted
	failed     uint64 // shard attempts that errored
	stolenFrom uint64 // shards duplicated away because this worker straggled
	stolenBy   uint64 // duplicated shards this worker picked up
}

// alive reports liveness by heartbeat age: a worker unseen for more than
// HeartbeatMiss intervals is dead and receives no new shards until a probe
// or registration revives it.
func (w *worker) alive(now time.Time, cfg Config) bool {
	return now.Sub(w.lastSeen) <= time.Duration(cfg.HeartbeatMiss)*cfg.HeartbeatInterval
}

// WorkerStatus is one row of GET /fleet/workerz: a worker's liveness and
// shard accounting as JSON.
type WorkerStatus struct {
	// URL is the worker's base URL.
	URL string `json:"url"`
	// Alive reports heartbeat-age liveness.
	Alive bool `json:"alive"`
	// Static distinguishes -fleet-workers entries from dynamic registrants.
	Static bool `json:"static"`
	// LastHeartbeatAgeMS is how long ago the worker was last seen.
	LastHeartbeatAgeMS int64 `json:"last_heartbeat_age_ms"`
	// Inflight counts shards currently assigned to the worker.
	Inflight int `json:"inflight"`
	// PoolWidth is the worker's reported job-pool width (0 = unknown).
	PoolWidth int `json:"pool_width,omitempty"`
	// ShardsDone counts accepted shard completions.
	ShardsDone uint64 `json:"shards_done"`
	// ShardsFailed counts errored shard attempts.
	ShardsFailed uint64 `json:"shards_failed"`
	// ShardsStolenFrom counts shards duplicated away from this straggler.
	ShardsStolenFrom uint64 `json:"shards_stolen_from"`
	// ShardsStolenBy counts duplicated shards this worker picked up.
	ShardsStolenBy uint64 `json:"shards_stolen_by"`
}

// shardOut is one accepted shard response: a trial range's results, or a
// perf request's probe result.
type shardOut struct {
	trials []leakage.TrialResult
	perf   *leakage.PerfResult
}

// executeShard runs one shard on one worker: POST the request, stream the
// NDJSON response, and validate completeness against the EOF marker. The
// context carries the per-attempt ShardTimeout; cancelling it (steal loss,
// dead-worker reap, sweep teardown) aborts the transfer.
func (c *Coordinator) executeShard(ctx context.Context, w *worker, req ShardRequest) (shardOut, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return shardOut{}, err
	}
	ctx, cancel := context.WithTimeout(ctx, c.cfg.ShardTimeout)
	defer cancel()
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, w.url+"/fleet/shard", bytes.NewReader(body))
	if err != nil {
		return shardOut{}, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := c.client.Do(hreq)
	if err != nil {
		return shardOut{}, fmt.Errorf("worker %s: %w", w.url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		err := fmt.Errorf("worker %s: shard HTTP %d: %s", w.url, resp.StatusCode, strings.TrimSpace(string(msg)))
		if resp.StatusCode == http.StatusTooManyRequests {
			// Every shard slot on the worker is busy (its pool may be shared
			// with local jobs or another coordinator). Not the shard's fault:
			// the scheduler backs off without charging the attempt budget.
			err = fmt.Errorf("%w: %v", errWorkerBusy, err)
		}
		return shardOut{}, err
	}

	out, err := decodeShardStream(resp.Body, req.Count, req.Perf)
	if err != nil {
		return shardOut{}, fmt.Errorf("worker %s: %w", w.url, err)
	}
	return out, nil
}

// decodeShardStream reads a shard's NDJSON response stream — the one input a
// coordinator takes from a worker. A trial stream is accepted only if it
// carries exactly count trial lines followed by an EOF marker whose count
// matches; a perf stream (perf set, count 0) only if it carries exactly one
// perf line and no trials before its EOF marker. Data after the marker, an
// error line, a line of the other kind, a malformed or oversized line, or a
// truncated stream is rejected.
func decodeShardStream(r io.Reader, count int, perf bool) (shardOut, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	out := shardOut{trials: make([]leakage.TrialResult, 0, count)}
	sawEOF := false
	for sc.Scan() {
		if sawEOF {
			return shardOut{}, fmt.Errorf("shard stream has data after its eof marker: %q", sc.Text())
		}
		var line ShardLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			return shardOut{}, fmt.Errorf("bad shard stream line %q: %w", sc.Text(), err)
		}
		switch {
		case line.Err != "":
			return shardOut{}, errors.New(line.Err)
		case line.EOF:
			if line.Count != len(out.trials) {
				return shardOut{}, fmt.Errorf("shard stream inconsistent: eof says %d trials, streamed %d",
					line.Count, len(out.trials))
			}
			sawEOF = true
		case line.Perf != nil:
			if !perf || out.perf != nil || line.Trial != nil {
				return shardOut{}, fmt.Errorf("unexpected perf line %q in shard stream", sc.Text())
			}
			out.perf = line.Perf
		case line.Trial != nil:
			if perf {
				return shardOut{}, fmt.Errorf("unexpected trial line %q in perf stream", sc.Text())
			}
			out.trials = append(out.trials, *line.Trial)
		}
	}
	if err := sc.Err(); err != nil {
		return shardOut{}, fmt.Errorf("shard stream: %w", err)
	}
	if !sawEOF {
		return shardOut{}, fmt.Errorf("shard stream truncated after %d/%d trials (no eof marker)", len(out.trials), count)
	}
	if len(out.trials) != count {
		return shardOut{}, fmt.Errorf("shard returned %d trials, want %d", len(out.trials), count)
	}
	if perf && out.perf == nil {
		return shardOut{}, errors.New("perf stream carries no perf line")
	}
	return out, nil
}

// probe checks one worker's /healthz on the wall clock (bounded by the
// heartbeat interval) and reports whether it is accepting work, plus the
// worker-pool width the health body advertises (0 = unknown) so the
// scheduler can avoid oversubscribing narrow workers.
func (c *Coordinator) probe(w *worker) (ok bool, poolWidth int) {
	timeout := c.cfg.HeartbeatInterval
	if timeout > 2*time.Second {
		timeout = 2 * time.Second
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.url+"/healthz", nil)
	if err != nil {
		return false, 0
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return false, 0
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	// A draining worker answers 503: reachable, but it must not receive new
	// shards; letting its heartbeat age out re-enqueues them elsewhere.
	if resp.StatusCode != http.StatusOK {
		return false, 0
	}
	var hb struct {
		Workers int `json:"workers"`
	}
	_ = json.Unmarshal(body, &hb)
	return true, hb.Workers
}
