package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"secdir/internal/config"
	"secdir/internal/fleet"
	"secdir/internal/metrics"
	"secdir/internal/store"
)

// Server is the secdir-serve job server: a bounded queue feeding a worker
// pool, a job table, and an http.Handler exposing the job API. Create one
// with New; it starts accepting work immediately and stops via Drain.
//
// Metrics strategy: the server's own instruments (queue depth, job counts,
// durations) live in the shared registry passed to New, which is
// goroutine-safe. Each job publishes into a private per-job child registry
// instead, so its per-core IPC series do not interleave with concurrent
// jobs' samples; when the job finishes the child's snapshot is folded into a
// cumulative snapshot under the server's lock, before the terminal state is
// visible, and /metricz serves the merge of the two.
type Server struct {
	cfg config.ServerConfig
	reg *metrics.Registry
	mux *http.ServeMux

	queue chan *Job
	wg    sync.WaitGroup

	// shardSem bounds concurrently executing /fleet/shard calls to the
	// worker-pool width (each shard fans out internally).
	shardSem chan struct{}

	mu       sync.Mutex
	jobs     map[string]*Job
	order    []string // submission order, for listing
	nextID   int
	draining bool
	// fleetC, when non-nil, makes this server a fleet coordinator
	// (AttachFleet).
	fleetC *fleet.Coordinator
	// st, when non-nil, is the experiment store every job lifecycle is
	// recorded in (AttachStore); lastStoreErr is the most recent write
	// failure, surfaced by /storez.
	st           *store.Store
	lastStoreErr string
	// cum accumulates the per-job child registries of finished jobs.
	cum metrics.Snapshot

	submitted    *metrics.Counter
	rejected     *metrics.Counter
	done         *metrics.Counter
	failed       *metrics.Counter
	canceled     *metrics.Counter
	requeuedJobs *metrics.Counter
	shardsServed *metrics.Counter
	storeErrs    *metrics.Counter
	jobMillis    *metrics.Histogram
}

// New builds a server from cfg, registering its operational instruments in
// reg (pass metrics.New() or an existing registry; nil creates a private
// one), and starts its worker pool.
func New(cfg config.ServerConfig, reg *metrics.Registry) (*Server, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if reg == nil {
		reg = metrics.New()
	}
	s := &Server{
		cfg:          cfg,
		reg:          reg,
		queue:        make(chan *Job, cfg.QueueDepth),
		shardSem:     make(chan struct{}, cfg.ResolvedWorkers()),
		jobs:         map[string]*Job{},
		submitted:    reg.Counter("server/jobs_submitted"),
		rejected:     reg.Counter("server/jobs_rejected"),
		done:         reg.Counter("server/jobs_done"),
		failed:       reg.Counter("server/jobs_failed"),
		canceled:     reg.Counter("server/jobs_canceled"),
		requeuedJobs: reg.Counter("server/jobs_requeued"),
		shardsServed: reg.Counter("server/shards_served"),
		storeErrs:    reg.Counter("server/store_errors"),
		jobMillis:    reg.Histogram("server/job_millis"),
	}
	reg.GaugeFunc("server/queue_depth", func() float64 { return float64(len(s.queue)) })

	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /jobs", s.handleList)
	s.mux.HandleFunc("GET /jobs/{id}", s.handleStatus)
	s.mux.HandleFunc("GET /jobs/{id}/result", s.handleResult)
	s.mux.HandleFunc("POST /jobs/{id}/cancel", s.handleCancel)
	s.mux.HandleFunc("GET /jobs/{id}/stream", s.handleStream)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /metricz", s.handleMetrics)
	s.mux.HandleFunc("GET /storez", s.handleStorez)
	s.mux.HandleFunc("GET /versionz", s.handleVersionz)
	s.mux.HandleFunc("POST /fleet/shard", s.handleShard)
	s.mux.HandleFunc("POST /fleet/register", s.handleFleetRegister)
	s.mux.HandleFunc("GET /fleet/workerz", s.handleFleetWorkerz)

	for i := 0; i < cfg.ResolvedWorkers(); i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Drain stops accepting submissions, pulls queued-but-unstarted jobs back
// out of the queue — marking them "requeued" and returning their IDs so the
// operator can resubmit them elsewhere instead of losing them; with a store
// attached each requeued job is also persisted to the ledger, so the next
// -store-dir start re-submits them automatically — then lets running jobs
// finish and returns when the pool is idle. If ctx expires first, every
// remaining job is cancelled and Drain waits for the (now fast) pool
// shutdown before returning ctx's error. An attached fleet coordinator is
// drained too. Safe to call more than once.
func (s *Server) Drain(ctx context.Context) ([]string, error) {
	s.mu.Lock()
	already := s.draining
	s.draining = true
	var requeued []string
	var requeuedJobs []*Job
	now := time.Now()
	if !already {
		// The pool keeps receiving concurrently; whatever it grabs before the
		// close simply runs to completion, which drain waits for anyway. Only
		// jobs still sitting in the channel are handed back.
	pull:
		for {
			select {
			case j := <-s.queue:
				if j.requeue(now) {
					s.requeuedJobs.Inc()
					requeued = append(requeued, j.ID)
					requeuedJobs = append(requeuedJobs, j)
				}
			default:
				break pull
			}
		}
		close(s.queue)
	}
	fc := s.fleetC
	s.mu.Unlock()
	for _, j := range requeuedJobs {
		s.recordJob(j, StateRequeued, nil, now, errRequeued)
	}

	idle := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(idle)
	}()
	var err error
	select {
	case <-idle:
	case <-ctx.Done():
		s.mu.Lock()
		for _, j := range s.jobs {
			j.Cancel(time.Now())
		}
		s.mu.Unlock()
		<-idle
		err = ctx.Err()
	}
	if fc != nil {
		if derr := fc.Drain(ctx); err == nil {
			err = derr
		}
	}
	return requeued, err
}

// worker executes jobs from the queue until the queue closes (Drain).
func (s *Server) worker() {
	defer s.wg.Done()
	for job := range s.queue {
		s.runJob(job)
	}
}

// runJob executes one job: per-job timeout, per-job child metrics registry,
// terminal-state accounting, cumulative snapshot fold.
func (s *Server) runJob(j *Job) {
	if !j.start(time.Now()) {
		return // cancelled while queued
	}
	ctx := j.ctx
	if s.cfg.JobTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.JobTimeout)
		defer cancel()
	}

	// A private child registry keeps the job's IPC series its own (series
	// from concurrent jobs would interleave in a shared one) and is folded
	// in whole once the job ends.
	jobReg := metrics.New()
	start := time.Now()
	var result any
	var err error
	if j.Spec.Fleet {
		if c := s.coordinator(); c != nil {
			result, err = s.runFleetJob(ctx, c, j)
		} else {
			err = fmt.Errorf("fleet job on a server with no coordinator attached")
		}
	} else {
		result, err = Run(ctx, j.Spec, jobReg, j.progress)
	}
	s.jobMillis.Observe(uint64(time.Since(start).Milliseconds()))

	// Fold the job's counters into the cumulative simulation snapshot before
	// the terminal state is visible, so a client that sees the job finish
	// also sees its counters.
	snap := jobReg.Snapshot()
	s.mu.Lock()
	s.cum = s.cum.Merge(snap)
	s.mu.Unlock()

	now := time.Now()
	state := StateDone
	switch {
	case err == nil:
	case errors.Is(err, context.Canceled):
		state, result = StateCanceled, nil
	case errors.Is(err, context.DeadlineExceeded):
		state, result = StateFailed, nil
		err = fmt.Errorf("job exceeded %v timeout: %w", s.cfg.JobTimeout, err)
	default:
		state, result = StateFailed, nil
	}
	// The terminal record (and result artifact) is appended before the state
	// is published, so a client that sees the job finish — or a restart after
	// a crash right then — finds the record in the ledger.
	s.recordJob(j, state, result, now, err)
	j.finish(state, result, err, now)
	switch state {
	case StateDone:
		s.done.Inc()
	case StateCanceled:
		s.canceled.Inc()
	default:
		s.failed.Inc()
	}
}

// apiError is the JSON error body every non-2xx response carries.
type apiError struct {
	// Error is the human-readable message.
	Error string `json:"error"`
}

// writeJSON encodes v with status code.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// writeError sends an apiError.
func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, apiError{Error: fmt.Sprintf(format, args...)})
}

// decodeBody decodes one JSON request body into v, rejecting unknown fields
// and bodies over 1 MiB — the decode every handler applies to untrusted input.
func decodeBody(w http.ResponseWriter, body io.ReadCloser, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, body, 1<<20))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// handleSubmit accepts a JobSpec, queues it, and answers 202 with the job
// status; 400 on a bad spec, 429 when the queue is full, 503 while draining.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	if err := decodeBody(w, r.Body, &spec); err != nil {
		writeError(w, http.StatusBadRequest, "bad job spec: %v", err)
		return
	}
	if err := spec.Normalize(); err != nil {
		writeError(w, http.StatusBadRequest, "bad job spec: %v", err)
		return
	}
	if spec.Fleet && s.coordinator() == nil {
		writeError(w, http.StatusBadRequest,
			"bad job spec: fleet jobs need a coordinator (start the server with -coordinator)")
		return
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		writeError(w, http.StatusServiceUnavailable, "server is draining; not accepting jobs")
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	job := newJob(fmt.Sprintf("job-%d", s.nextID+1), spec, ctx, cancel, time.Now())
	status := job.Status()
	ok, storeErr := s.enqueueLocked(job)
	if ok {
		s.nextID++
	}
	s.mu.Unlock()
	if storeErr != nil {
		s.noteStoreErr(storeErr)
	}
	if !ok {
		cancel()
		s.rejected.Inc()
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests,
			"job queue full (%d queued); retry later", s.cfg.QueueDepth)
		return
	}
	s.submitted.Inc()
	writeJSON(w, http.StatusAccepted, status)
}

// enqueueLocked hands a new job to the worker pool and reports false, having
// done nothing, when the queue is full. The caller holds s.mu. Every queue
// sender holds it too, so the capacity check guarantees the send cannot
// block. The job's "queued" ledger record is appended before the send: once
// a worker can see the job, every record it writes for that job lands after
// the submission record, which is what lets a -store-dir restart re-submit
// exactly the jobs a SIGKILL caught before they finished. Append only hashes
// and hands the line to the store's writer, so holding s.mu across it costs
// no I/O. A store failure is returned for the caller to note after
// unlocking; it never rejects the job.
func (s *Server) enqueueLocked(j *Job) (bool, error) {
	if len(s.queue) == cap(s.queue) {
		return false, nil
	}
	err := appendJob(s.st, j, StateQueued, nil, time.Time{}, nil)
	s.queue <- j
	s.jobs[j.ID] = j
	s.order = append(s.order, j.ID)
	return true, err
}

// lookup resolves {id} or writes a 404.
func (s *Server) lookup(w http.ResponseWriter, r *http.Request) *Job {
	id := r.PathValue("id")
	s.mu.Lock()
	job := s.jobs[id]
	s.mu.Unlock()
	if job == nil {
		writeError(w, http.StatusNotFound, "no such job %q", id)
	}
	return job
}

// handleList answers with every job's status in submission order.
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	jobs := make([]*Job, 0, len(s.order))
	for _, id := range s.order {
		jobs = append(jobs, s.jobs[id])
	}
	s.mu.Unlock()
	out := make([]JobStatus, len(jobs))
	for i, j := range jobs {
		out[i] = j.Status()
	}
	writeJSON(w, http.StatusOK, out)
}

// handleStatus answers one job's status.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if job := s.lookup(w, r); job != nil {
		writeJSON(w, http.StatusOK, job.Status())
	}
}

// resultBody is the JSON shape of GET /jobs/{id}/result.
type resultBody struct {
	// ID and State identify the job and its terminal state.
	ID string `json:"id"`
	// State is the job's state at read time.
	State JobState `json:"state"`
	// Result is the kind-specific payload.
	Result any `json:"result"`
}

// handleResult answers the result of a done job; 409 while the job is still
// pending, 410 for failed/cancelled jobs.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	job := s.lookup(w, r)
	if job == nil {
		return
	}
	res, err := job.Result()
	if err != nil {
		if job.State().Terminal() {
			writeError(w, http.StatusGone, "%v", err)
		} else {
			writeError(w, http.StatusConflict, "%v", err)
		}
		return
	}
	writeJSON(w, http.StatusOK, resultBody{ID: job.ID, State: StateDone, Result: res})
}

// handleCancel cancels a job (queued or running) and answers its status.
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	job := s.lookup(w, r)
	if job == nil {
		return
	}
	job.Cancel(time.Now())
	writeJSON(w, http.StatusOK, job.Status())
}

// handleStream streams the job's progress events as NDJSON (one JSON object
// per line), flushing per event, until the job finishes or the client goes
// away.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	job := s.lookup(w, r)
	if job == nil {
		return
	}
	history, ch, unsub := job.Subscribe()
	defer unsub()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	emit := func(e Event) bool {
		if err := enc.Encode(e); err != nil {
			return false
		}
		if flusher != nil {
			flusher.Flush()
		}
		return true
	}
	for _, e := range history {
		if !emit(e) {
			return
		}
	}
	for {
		select {
		case e, ok := <-ch:
			if !ok {
				return
			}
			if !emit(e) {
				return
			}
		case <-r.Context().Done():
			return
		}
	}
}

// healthBody is the JSON shape of GET /healthz.
type healthBody struct {
	// Status is "ok" or "draining".
	Status string `json:"status"`
	// Queued and Running count jobs by live state; Workers is the pool
	// width.
	Queued int `json:"queued"`
	// Running counts jobs currently executing.
	Running int `json:"running"`
	// Workers is the worker-pool width.
	Workers int `json:"workers"`
}

// handleHealth reports liveness and load.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	body := healthBody{Status: "ok", Workers: s.cfg.ResolvedWorkers()}
	if s.draining {
		body.Status = "draining"
	}
	jobs := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	for _, j := range jobs {
		switch j.State() {
		case StateQueued:
			body.Queued++
		case StateRunning:
			body.Running++
		}
	}
	code := http.StatusOK
	if body.Status != "ok" {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, body)
}

// metricsBody is the JSON shape of GET /metricz: the server's operational
// instruments merged with the cumulative simulation counters of every
// finished job, plus — on a coordinator — the fleet's per-worker status.
type metricsBody struct {
	// Snapshot is the merged registry snapshot.
	Snapshot metrics.Snapshot `json:"snapshot"`
	// Fleet is the coordinator's per-worker view (absent on plain servers).
	Fleet []fleet.WorkerStatus `json:"fleet,omitempty"`
}

// handleMetrics serves the merged metrics snapshot.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	live := s.reg.Snapshot()
	s.mu.Lock()
	cum := s.cum
	s.mu.Unlock()
	body := metricsBody{Snapshot: cum.Merge(live)}
	if c := s.coordinator(); c != nil {
		body.Fleet = c.Workerz()
	}
	writeJSON(w, http.StatusOK, body)
}
