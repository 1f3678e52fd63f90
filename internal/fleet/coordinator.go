package fleet

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"secdir/internal/leakage"
	"secdir/internal/metrics"
)

// Coordinator owns a fleet of secdir-serve workers and runs leak/leaderboard
// sweeps across them. Create one with New; it immediately starts probing its
// workers and stops via Drain.
type Coordinator struct {
	cfg    Config
	reg    *metrics.Registry
	clock  Clock
	client *http.Client

	mu       sync.Mutex
	workers  map[string]*worker
	draining bool
	runs     sync.WaitGroup
	stopHB   chan struct{}
	hbDone   chan struct{}

	inflight int64 // atomic: shards in flight fleet-wide

	dispatched  *metrics.Counter
	retried     *metrics.Counter
	stolen      *metrics.Counter
	requeuedCtr *metrics.Counter
	discarded   *metrics.Counter
	busyCtr     *metrics.Counter
	shardMillis *metrics.Histogram
}

// New builds a coordinator over cfg's static workers (more may Register
// later) and starts its heartbeat prober.
func New(cfg Config) *Coordinator {
	cfg = cfg.withDefaults()
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.New()
	}
	c := &Coordinator{
		cfg:     cfg,
		reg:     reg,
		clock:   cfg.Clock,
		client:  cfg.Client,
		workers: map[string]*worker{},
		stopHB:  make(chan struct{}),
		hbDone:  make(chan struct{}),

		dispatched:  reg.Counter("fleet/shards_dispatched"),
		retried:     reg.Counter("fleet/shards_retried"),
		stolen:      reg.Counter("fleet/shards_stolen"),
		requeuedCtr: reg.Counter("fleet/shards_requeued"),
		discarded:   reg.Counter("fleet/shards_discarded"),
		busyCtr:     reg.Counter("fleet/shards_busy"),
		shardMillis: reg.Histogram("fleet/shard_millis"),
	}
	now := c.clock.Now()
	for _, u := range cfg.Workers {
		u = normalizeWorkerURL(u)
		if u == "" {
			continue
		}
		c.workers[u] = &worker{url: u, static: true, lastSeen: now}
	}
	reg.GaugeFunc("fleet/workers_known", func() float64 {
		c.mu.Lock()
		defer c.mu.Unlock()
		return float64(len(c.workers))
	})
	reg.GaugeFunc("fleet/workers_live", func() float64 {
		c.mu.Lock()
		defer c.mu.Unlock()
		n := 0
		t := c.clock.Now()
		for _, w := range c.workers {
			if w.alive(t, c.cfg) {
				n++
			}
		}
		return float64(n)
	})
	reg.GaugeFunc("fleet/shards_inflight", func() float64 {
		return float64(atomic.LoadInt64(&c.inflight))
	})
	go c.heartbeatLoop()
	return c
}

// Register adds or refreshes a worker — the /fleet/register handler's hook.
// Registration doubles as the heartbeat: a registered worker that stops
// re-registering ages out after HeartbeatMiss intervals. Returns the
// interval the worker should re-register at.
func (c *Coordinator) Register(rawURL string, poolWidth int) (time.Duration, error) {
	u := normalizeWorkerURL(rawURL)
	parsed, err := url.Parse(u)
	if err != nil || (parsed.Scheme != "http" && parsed.Scheme != "https") || parsed.Host == "" {
		return 0, fmt.Errorf("fleet: bad worker url %q (want http(s)://host:port)", rawURL)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.draining {
		return 0, fmt.Errorf("fleet: coordinator is draining; not accepting workers")
	}
	w := c.workers[u]
	if w == nil {
		w = &worker{url: u}
		c.workers[u] = w
	}
	w.lastSeen = c.clock.Now()
	if poolWidth > 0 {
		w.poolWidth = poolWidth
	}
	return c.cfg.HeartbeatInterval, nil
}

// Workerz snapshots every worker's liveness and shard accounting, sorted by
// URL — the /fleet/workerz payload.
func (c *Coordinator) Workerz() []WorkerStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.clock.Now()
	out := make([]WorkerStatus, 0, len(c.workers))
	for _, w := range c.workers {
		out = append(out, WorkerStatus{
			URL:                w.url,
			Alive:              w.alive(now, c.cfg),
			Static:             w.static,
			LastHeartbeatAgeMS: now.Sub(w.lastSeen).Milliseconds(),
			Inflight:           w.inflight,
			PoolWidth:          w.poolWidth,
			ShardsDone:         w.done,
			ShardsFailed:       w.failed,
			ShardsStolenFrom:   w.stolenFrom,
			ShardsStolenBy:     w.stolenBy,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].URL < out[j].URL })
	return out
}

// Drain stops the heartbeat prober, refuses new sweeps and registrations,
// and waits for active sweeps — and therefore their in-flight shards — to
// finish, bounded by ctx. Safe to call more than once.
func (c *Coordinator) Drain(ctx context.Context) error {
	c.mu.Lock()
	already := c.draining
	c.draining = true
	c.mu.Unlock()
	if !already {
		close(c.stopHB)
	}
	<-c.hbDone
	done := make(chan struct{})
	go func() {
		c.runs.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// heartbeatLoop probes every worker's /healthz each interval, refreshing
// lastSeen on success. A worker that stops answering ages out and its
// in-flight shards are re-enqueued by the sweep scheduler.
func (c *Coordinator) heartbeatLoop() {
	defer close(c.hbDone)
	// An eager first probe learns static workers' pool widths before the
	// first sweep, so the scheduler can size dispatch to them immediately.
	c.probeWorkers()
	for {
		select {
		case <-c.stopHB:
			return
		case <-c.clock.After(c.cfg.HeartbeatInterval):
		}
		c.probeWorkers()
	}
}

// probeWorkers probes all workers concurrently and folds the outcomes back
// under the lock.
func (c *Coordinator) probeWorkers() {
	c.mu.Lock()
	targets := make([]*worker, 0, len(c.workers))
	for _, w := range c.workers {
		targets = append(targets, w)
	}
	c.mu.Unlock()
	if len(targets) == 0 {
		return
	}
	ok := make([]bool, len(targets))
	widths := make([]int, len(targets))
	var wg sync.WaitGroup
	for i, w := range targets {
		wg.Add(1)
		go func(i int, w *worker) {
			defer wg.Done()
			ok[i], widths[i] = c.probe(w)
		}(i, w)
	}
	wg.Wait()
	c.mu.Lock()
	now := c.clock.Now()
	for i, w := range targets {
		if ok[i] {
			w.lastSeen = now
			if widths[i] > 0 {
				w.poolWidth = widths[i]
			}
		}
	}
	c.mu.Unlock()
}

// taskState is a shard task's scheduling state.
type taskState int

const (
	taskPending taskState = iota
	taskInflight
	taskDone
)

// sweep is one distributed run of a leakage.Plan: the results its accepted
// shards have delivered and its per-cell progress.
type sweep struct {
	plan   *leakage.Plan
	res    leakage.Results // trials appended per cell as shards land; one probe per config
	done   []int           // per cell: trials completed
	offset []int           // per cell: progress offset within the sweep
	total  int             // trials in the sweep
}

// task is one unit of a sweep's plan as the scheduler tracks it.
type task struct {
	id        int
	unit      leakage.Unit
	req       ShardRequest
	state     taskState
	attempts  int       // genuine-failure attempts charged against MaxAttempts
	notBefore time.Time // backoff gate for the next dispatch
	assigns   map[*assign]struct{}
}

// cell is the task's provenance cell: its "config/strategy" stage label, or
// a probe's configuration name.
func (t *task) cell() string {
	if t.req.Perf {
		return t.req.Config
	}
	return t.req.Config + "/" + t.req.Strategy
}

// label names the task's unit in errors.
func (t *task) label() string {
	if t.req.Perf {
		return t.req.Config + " perf probe"
	}
	return fmt.Sprintf("%s trials [%d,%d)", t.cell(), t.req.Start, t.req.Start+t.req.Count)
}

// assign is one live (task, worker) dispatch.
type assign struct {
	t       *task
	w       *worker
	cancel  context.CancelFunc
	started time.Time // Clock time, for steal aging
	charged bool      // this dispatch consumed one of the task's attempts
	requeue bool      // cancelled by reaper/steal settlement: refund the attempt
}

// shardResult is what a dispatch goroutine reports back to the scheduler.
type shardResult struct {
	a      *assign
	out    shardOut
	err    error
	millis int64
}

// RunLeak executes a distributed leak sweep and merges it into the exact
// Report a single-process leakage.RunReport of the same spec produces, along
// with the per-shard merge provenance (which worker's result each trial range
// came from). progress (may be nil) receives per-cell trial counts offset so
// done climbs monotonically per stage, matching the local job runner's
// convention.
func (c *Coordinator) RunLeak(ctx context.Context, spec SweepSpec, progress func(stage string, done, total int)) (*leakage.Report, []ShardProvenance, error) {
	spec.Kind = SweepLeak
	sw, prov, err := c.run(ctx, spec, progress)
	if err != nil {
		return nil, nil, err
	}
	rep, err := sw.plan.Report(&sw.res)
	if err != nil {
		return nil, nil, err
	}
	return rep, prov, nil
}

// RunLeaderboard executes a distributed cross-defense race: every trial
// range and every defense's performance probe runs on a worker, and the
// coordinator only merges. The result is bit-identical to
// leakage.RunLeaderboard of the same spec; the second return value is the
// per-shard merge provenance, as in RunLeak.
func (c *Coordinator) RunLeaderboard(ctx context.Context, spec SweepSpec, progress func(stage string, done, total int)) (*leakage.Leaderboard, []ShardProvenance, error) {
	spec.Kind = SweepLeaderboard
	sw, prov, err := c.run(ctx, spec, progress)
	if err != nil {
		return nil, nil, err
	}
	lb, err := sw.plan.Leaderboard(&sw.res)
	if err != nil {
		return nil, nil, err
	}
	return lb, prov, nil
}

// run admits a sweep (not draining, at least one worker), plans it into
// ShardTrials-sized units and drives them to completion across the fleet.
func (c *Coordinator) run(ctx context.Context, spec SweepSpec, progress func(stage string, done, total int)) (*sweep, []ShardProvenance, error) {
	c.mu.Lock()
	if c.draining {
		c.mu.Unlock()
		return nil, nil, fmt.Errorf("fleet: coordinator is draining; not accepting sweeps")
	}
	if len(c.workers) == 0 {
		c.mu.Unlock()
		return nil, nil, fmt.Errorf("fleet: no workers (configure -fleet-workers or register some)")
	}
	c.runs.Add(1)
	c.mu.Unlock()
	defer c.runs.Done()
	p, err := spec.plan(c.cfg.ShardTrials)
	if err != nil {
		return nil, nil, err
	}
	sw := &sweep{
		plan:   p,
		res:    leakage.Results{Trials: make([][]leakage.TrialResult, len(p.Cells)), Perf: make([]leakage.PerfResult, len(p.Configs))},
		done:   make([]int, len(p.Cells)),
		offset: make([]int, len(p.Cells)),
	}
	for i, cl := range p.Cells {
		sw.res.Trials[i] = make([]leakage.TrialResult, 0, cl.Count)
		sw.offset[i] = sw.total
		sw.total += cl.Count
	}
	prov, err := c.runShards(ctx, sw, progress)
	if err != nil {
		return nil, nil, err
	}
	return sw, prov, nil
}

// runShards is the sweep scheduler: it turns every unit of the sweep's plan
// into a task and drives them all to completion across the fleet, in plan
// order, retrying failures with exponential backoff, re-enqueueing shards
// from dead workers, and duplicating stragglers' shards onto idle workers.
// On success it returns one ShardProvenance per task, sorted by (cell, start)
// so the listing is deterministic regardless of completion order.
func (c *Coordinator) runShards(ctx context.Context, sw *sweep, progress func(stage string, done, total int)) ([]ShardProvenance, error) {
	tasks := make([]*task, len(sw.plan.Units))
	for i, u := range sw.plan.Units {
		tasks[i] = &task{
			id:      i,
			unit:    u,
			req:     shardRequest(sw.plan, u, c.cfg.LocalWorkers),
			assigns: map[*assign]struct{}{},
		}
	}

	resc := make(chan shardResult)
	remaining := len(tasks)
	outstanding := 0
	var failErr error
	var prov []ShardProvenance

	for remaining > 0 && failErr == nil && ctx.Err() == nil {
		c.reapDead(tasks)
		c.launch(ctx, tasks, resc, &outstanding)
		wake := c.nextWake(tasks)
		select {
		case r := <-resc:
			outstanding--
			c.settle(r, sw, &remaining, &failErr, progress, &prov)
		case <-c.clock.After(wake):
			// Wake to re-check backoff gates, liveness and steal aging.
		case <-ctx.Done():
		}
	}

	// Teardown: cancel whatever is still in flight (steal losers after
	// success, everything on failure/cancel) and drain their results so no
	// goroutine leaks.
	c.mu.Lock()
	for _, t := range tasks {
		for a := range t.assigns {
			a.requeue = true
			a.cancel()
		}
	}
	c.mu.Unlock()
	for outstanding > 0 {
		r := <-resc
		outstanding--
		c.settle(r, sw, &remaining, &failErr, nil, &prov)
	}
	if failErr != nil {
		return nil, failErr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sort.Slice(prov, func(i, j int) bool {
		if prov[i].Cell != prov[j].Cell {
			return prov[i].Cell < prov[j].Cell
		}
		return prov[i].Start < prov[j].Start
	})
	return prov, nil
}

// launch assigns ready pending tasks to live workers with free slots, then
// steals for idle workers: duplicating the oldest sufficiently-aged single-
// assignment in-flight shard onto a strictly idle worker.
func (c *Coordinator) launch(ctx context.Context, tasks []*task, resc chan<- shardResult, outstanding *int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.clock.Now()

	// A worker with a known pool width never takes more concurrent shards
	// than it has slots: dispatching past that would only bounce off its
	// 429 busy refusals.
	slots := func(w *worker) int {
		n := c.cfg.MaxInflight
		if w.poolWidth > 0 && w.poolWidth < n {
			n = w.poolWidth
		}
		return n
	}
	free := func() []*worker {
		var ws []*worker
		for _, w := range c.workers {
			if w.alive(now, c.cfg) && w.inflight < slots(w) {
				ws = append(ws, w)
			}
		}
		// Least-loaded first; URL breaks ties for stable scheduling.
		sort.Slice(ws, func(i, j int) bool {
			if ws[i].inflight != ws[j].inflight {
				return ws[i].inflight < ws[j].inflight
			}
			return ws[i].url < ws[j].url
		})
		return ws
	}

	// Pending pass.
	candidates := free()
	for _, t := range tasks {
		if len(candidates) == 0 {
			break
		}
		if t.state != taskPending || t.notBefore.After(now) {
			continue
		}
		w := candidates[0]
		t.attempts++ // charged up front; refunded if the attempt is requeued through no fault of its own
		c.spawn(ctx, t, w, true, now, resc, outstanding)
		candidates = free()
	}

	// Steal pass: strictly idle workers adopt the oldest straggling shard.
	for _, w := range free() {
		if w.inflight != 0 {
			continue
		}
		var victim *task
		var oldest time.Time
		for _, t := range tasks {
			if t.state != taskInflight || len(t.assigns) != 1 {
				continue
			}
			var a *assign
			for a0 := range t.assigns {
				a = a0
			}
			if a.w == w || now.Sub(a.started) < c.cfg.StealAfter {
				continue
			}
			if victim == nil || a.started.Before(oldest) {
				victim, oldest = t, a.started
			}
		}
		if victim == nil {
			continue
		}
		var from *worker
		for a := range victim.assigns {
			from = a.w
		}
		from.stolenFrom++
		w.stolenBy++
		c.stolen.Inc()
		// Steal duplicates don't charge the attempt budget: the shard isn't
		// failing, its worker is straggling.
		c.spawn(ctx, victim, w, false, now, resc, outstanding)
	}
}

// spawn launches one dispatch goroutine for (t, w). Caller holds c.mu.
func (c *Coordinator) spawn(ctx context.Context, t *task, w *worker, charged bool, now time.Time, resc chan<- shardResult, outstanding *int) {
	actx, cancel := context.WithCancel(ctx)
	a := &assign{t: t, w: w, cancel: cancel, started: now, charged: charged}
	t.assigns[a] = struct{}{}
	t.state = taskInflight
	w.inflight++
	*outstanding++
	atomic.AddInt64(&c.inflight, 1)
	c.dispatched.Inc()
	wall := time.Now()
	go func() {
		out, err := c.executeShard(actx, w, t.req)
		cancel()
		resc <- shardResult{a: a, out: out, err: err, millis: time.Since(wall).Milliseconds()}
	}()
}

// settle folds one dispatch outcome back into the scheduler state, appending
// to prov when it accepts a shard's result. progress is nil during teardown
// drains.
func (c *Coordinator) settle(r shardResult, sw *sweep, remaining *int, failErr *error, progress func(stage string, done, total int), prov *[]ShardProvenance) {
	c.mu.Lock()
	a, t := r.a, r.a.t
	delete(t.assigns, a)
	a.w.inflight--
	atomic.AddInt64(&c.inflight, -1)
	now := c.clock.Now()

	if r.err == nil {
		c.shardMillis.Observe(uint64(r.millis))
		if t.state == taskDone {
			// A steal-race loser that completed anyway: first result won,
			// this one is discarded — the merge must never see duplicates.
			c.discarded.Inc()
			c.mu.Unlock()
			return
		}
		t.state = taskDone
		*remaining--
		a.w.done++
		*prov = append(*prov, ShardProvenance{
			Cell:     t.cell(),
			Perf:     t.req.Perf,
			Start:    t.req.Start,
			Count:    t.req.Count,
			Worker:   a.w.url,
			Attempts: t.attempts,
			Millis:   r.millis,
		})
		for other := range t.assigns {
			other.requeue = true
			other.cancel()
		}
		u := t.unit
		if u.Perf() {
			sw.res.Perf[u.Config] = *r.out.perf
			c.mu.Unlock()
			return
		}
		sw.res.Trials[u.Cell] = append(sw.res.Trials[u.Cell], r.out.trials...)
		sw.done[u.Cell] += len(r.out.trials)
		stage, done := t.cell(), sw.offset[u.Cell]+sw.done[u.Cell]
		c.mu.Unlock()
		if progress != nil {
			progress(stage, done, sw.total)
		}
		return
	}

	if t.state == taskDone {
		// The cancelled loser of a settled steal race.
		c.mu.Unlock()
		return
	}
	if a.requeue {
		// Killed by the dead-worker reaper or sweep teardown — not the
		// shard's fault: refund the attempt (if this dispatch was charged)
		// and redispatch immediately.
		if a.charged {
			t.attempts--
		}
		c.requeuedCtr.Inc()
		if len(t.assigns) == 0 {
			t.state = taskPending
			t.notBefore = now
		}
		c.mu.Unlock()
		return
	}
	if errors.Is(r.err, errWorkerBusy) {
		// The worker's shard slots were all occupied — a load signal, not a
		// failure: refund the attempt and retry after a backoff so the shard
		// can't exhaust its budget bouncing off a busy fleet.
		if a.charged {
			t.attempts--
		}
		c.busyCtr.Inc()
		if len(t.assigns) == 0 {
			t.state = taskPending
			t.notBefore = now.Add(c.cfg.backoff(t.attempts + 1))
		}
		c.mu.Unlock()
		return
	}
	a.w.failed++
	if len(t.assigns) > 0 {
		// A duplicate is still in flight; let it race on.
		c.mu.Unlock()
		return
	}
	if t.attempts >= c.cfg.MaxAttempts {
		if *failErr == nil {
			*failErr = fmt.Errorf("fleet: shard %s: %d attempts exhausted: %w", t.label(), t.attempts, r.err)
		}
		c.mu.Unlock()
		return
	}
	t.state = taskPending
	t.notBefore = now.Add(c.cfg.backoff(t.attempts))
	c.retried.Inc()
	c.mu.Unlock()
}

// reapDead cancels assignments held by workers whose heartbeats have aged
// out; their shards re-enqueue through the settle path with the attempt
// refunded.
func (c *Coordinator) reapDead(tasks []*task) {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.clock.Now()
	for _, t := range tasks {
		for a := range t.assigns {
			if !a.requeue && !a.w.alive(now, c.cfg) {
				a.requeue = true
				a.cancel()
			}
		}
	}
}

// nextWake picks how long the scheduler may sleep: the nearest pending
// backoff gate, capped at the heartbeat interval so liveness and steal aging
// are re-checked at that cadence.
func (c *Coordinator) nextWake(tasks []*task) time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.clock.Now()
	wake := c.cfg.HeartbeatInterval
	for _, t := range tasks {
		if t.state != taskPending {
			continue
		}
		if d := t.notBefore.Sub(now); d > 0 && d < wake {
			wake = d
		}
	}
	if wake < time.Millisecond {
		wake = time.Millisecond
	}
	return wake
}
