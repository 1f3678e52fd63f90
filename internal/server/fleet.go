package server

import (
	"context"
	"encoding/json"
	"io"
	"net/http"

	"secdir/internal/fleet"
	"secdir/internal/leakage"
	"secdir/internal/metrics"
)

// This file is the server's two fleet faces. Every server is a WORKER: it
// exposes POST /fleet/shard, executing one unit of a sweep's plan — a trial
// range of one (config, strategy) cell, or one configuration's performance
// probe — and streaming the results back as NDJSON. A
// server with a fleet.Coordinator attached (secdir-serve -coordinator) is
// additionally a COORDINATOR: it accepts fleet jobs (JobSpec.Fleet), worker
// registrations (POST /fleet/register), and serves the per-worker liveness
// snapshot (GET /fleet/workerz).

// AttachFleet makes the server a fleet coordinator: leak and leaderboard
// jobs submitted with "fleet": true run across c's workers, and the
// /fleet/register and /fleet/workerz endpoints come alive. Call before
// serving traffic.
func (s *Server) AttachFleet(c *fleet.Coordinator) {
	s.mu.Lock()
	s.fleetC = c
	s.mu.Unlock()
}

// coordinator returns the attached coordinator, or nil.
func (s *Server) coordinator() *fleet.Coordinator {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fleetC
}

// runFleetJob executes a Fleet job by fanning its sweep out across the
// coordinator's workers. The merged result is the same Go value the local
// runner would have produced, so the job API's JSON is identical either way.
// With a store attached, the sweep's per-shard merge provenance (which worker
// computed which trial range) lands in the ledger as a KindFleetMerge record.
func (s *Server) runFleetJob(ctx context.Context, c *fleet.Coordinator, j *Job) (any, error) {
	spec := fleet.SweepSpec{
		Configs:       j.Spec.Configs,
		Strategies:    j.Spec.Strategies,
		Cores:         j.Spec.Cores,
		Trials:        j.Spec.Trials,
		Rounds:        j.Spec.Rounds,
		EvictionLines: j.Spec.EvictionLines,
		Seed:          j.Spec.Seed,
		Confidence:    j.Spec.Confidence,
		Resamples:     j.Spec.Resamples,
		PerfAccesses:  j.Spec.PerfAccesses,
	}
	switch j.Spec.Kind {
	case KindLeaderboard:
		lb, prov, err := c.RunLeaderboard(ctx, spec, j.progress)
		if err != nil {
			return nil, err
		}
		s.recordFleetMerge(j, prov)
		return lb, nil
	default:
		rep, prov, err := c.RunLeak(ctx, spec, j.progress)
		if err != nil {
			return nil, err
		}
		s.recordFleetMerge(j, prov)
		return rep, nil
	}
}

// handleShard executes one shard request — a trial range or a performance
// probe — and streams its result as NDJSON through streamShard. 400 for an
// invalid request, 503 while draining, 429 when every shard slot is busy
// (the coordinator retries with backoff).
func (s *Server) handleShard(w http.ResponseWriter, r *http.Request) {
	var req fleet.ShardRequest
	if err := decodeBody(w, r.Body, &req); err != nil {
		writeError(w, http.StatusBadRequest, "bad shard request: %v", err)
		return
	}
	plan, err := req.Plan()
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad shard request: %v", err)
		return
	}
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		writeError(w, http.StatusServiceUnavailable, "server is draining; not accepting shards")
		return
	}
	select {
	case s.shardSem <- struct{}{}:
		defer func() { <-s.shardSem }()
	default:
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "all %d shard slots busy; retry later", cap(s.shardSem))
		return
	}
	s.shardsServed.Inc()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	var flush func()
	if f, ok := w.(http.Flusher); ok {
		flush = f.Flush
	}

	// The shard's trial counters go to a private registry, folded into the
	// cumulative snapshot when the shard ends — the same per-run fold runJob
	// does for jobs.
	shardReg := metrics.New()
	plan.Base.Metrics = shardReg
	streamShard(r.Context(), plan, w, flush)
	snap := shardReg.Snapshot()
	s.mu.Lock()
	s.cum = s.cum.Merge(snap)
	s.mu.Unlock()
}

// streamShard executes a shard request's plan and writes its NDJSON response
// to w: {"trial":...} lines in completion order, or one {"perf":...} line
// for a probe, then {"eof":true,"count":N} — or {"error":"..."} if the unit
// fails. flush (nil = none) runs after every line.
func streamShard(ctx context.Context, p *leakage.Plan, w io.Writer, flush func()) {
	enc := json.NewEncoder(w)
	write := func(l fleet.ShardLine) {
		_ = enc.Encode(l)
		if flush != nil {
			flush()
		}
	}
	count := 0
	_, err := p.Execute(ctx, leakage.Hooks{
		Trial: func(_ int, tr leakage.TrialResult) {
			count++
			write(fleet.ShardLine{Trial: &tr})
		},
		Perf: func(_ int, r leakage.PerfResult) { write(fleet.ShardLine{Perf: &r}) },
	})
	if err != nil {
		write(fleet.ShardLine{Err: err.Error()})
		return
	}
	write(fleet.ShardLine{EOF: true, Count: count})
}

// handleFleetRegister accepts a worker's registration/heartbeat. 404 unless
// this server is a coordinator.
func (s *Server) handleFleetRegister(w http.ResponseWriter, r *http.Request) {
	c := s.coordinator()
	if c == nil {
		writeError(w, http.StatusNotFound, "this server is not a fleet coordinator")
		return
	}
	var req fleet.RegisterRequest
	if err := decodeBody(w, r.Body, &req); err != nil {
		writeError(w, http.StatusBadRequest, "bad register request: %v", err)
		return
	}
	interval, err := c.Register(req.URL, req.Workers)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, fleet.RegisterResponse{IntervalMS: interval.Milliseconds()})
}

// handleFleetWorkerz serves the coordinator's per-worker status. 404 unless
// this server is a coordinator.
func (s *Server) handleFleetWorkerz(w http.ResponseWriter, r *http.Request) {
	c := s.coordinator()
	if c == nil {
		writeError(w, http.StatusNotFound, "this server is not a fleet coordinator")
		return
	}
	writeJSON(w, http.StatusOK, c.Workerz())
}
