package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"runtime"
	"time"

	"secdir/internal/fleet"
	"secdir/internal/server"
	"secdir/internal/store"
)

// The serve-fleet workload is the operator's path. One closed-loop client
// on one connection submits a seeded sequence of small jobs — two replay
// jobs for every fleet leak job — and for each one POSTs /jobs, waits on
// /jobs/{id}/stream for the terminal event, then GETs the result.
const (
	minJobs    = 30 // a short budget still yields a p90 with a tail
	traceJobs  = 36 // fixed length of the traced pass
	replayWarm = 3000
	replayMeas = 3000
	leakTrials = 50 // two fleet shards of the default 25 trials
	leakRounds = 16
)

// benchDir is where the stores of the serve-fleet rigs live: the build
// directory run.sh exports as PERFBENCH_DIR, else .bench_build.
func benchDir() string {
	if d := os.Getenv("PERFBENCH_DIR"); d != "" {
		return d
	}
	return ".bench_build"
}

// jobGen yields the seeded job sequence in a fixed pattern of replay,
// replay, leak. The replay pool holds one spec per SPEC mix and the leak
// pool two per (config, strategy) pair, each with a seeded seed; each kind
// walks its pool in a fresh seeded order per pass, so every run weighs the
// same work alike whatever its seed.
type jobGen struct {
	r              *rand.Rand
	replays, leaks pool
	i              int
}

// pool deals its specs in a new random order on every pass.
type pool struct {
	specs []server.JobSpec
	order []int
}

func (p *pool) next(r *rand.Rand) server.JobSpec {
	if len(p.order) == 0 {
		p.order = r.Perm(len(p.specs))
	}
	s := p.specs[p.order[0]]
	p.order = p.order[1:]
	return s
}

func newJobGen(seed int64) *jobGen {
	g := &jobGen{r: rand.New(rand.NewSource(seed))}
	for mix := 0; mix < 12; mix++ {
		g.replays.specs = append(g.replays.specs, server.JobSpec{
			Kind:     server.KindReplay,
			Design:   "secdir",
			Workload: fmt.Sprintf("mix%d", mix),
			Warmup:   replayWarm,
			Measure:  replayMeas,
			Seed:     1 + g.r.Int63n(1<<30),
		})
	}
	for _, cfg := range []string{"skylake-unfixed", "secdir"} {
		for _, strat := range []string{"primeprobe", "evictreload"} {
			for i := 0; i < 2; i++ {
				g.leaks.specs = append(g.leaks.specs, server.JobSpec{
					Kind:       server.KindLeak,
					Configs:    []string{cfg},
					Strategies: []string{strat},
					Trials:     leakTrials,
					Rounds:     leakRounds,
					Seed:       1 + g.r.Int63n(1<<30),
					Fleet:      true,
				})
			}
		}
	}
	return g
}

// next returns the next job's spec.
func (g *jobGen) next() server.JobSpec {
	g.i++
	if g.i%3 == 0 {
		return g.leaks.next(g.r)
	}
	return g.replays.next(g.r)
}

// jobRun is one job as the client saw it.
type jobRun struct {
	spec    server.JobSpec
	id      string
	latency time.Duration // wall clock, as the server's timestamps
	net     time.Duration // latency on the net clock
	outcome outcome
	result  []byte // compact JSON of the result payload
	status  server.JobStatus
}

// client is the closed-loop load generator: one connection, one job at a
// time.
type client struct {
	hc   *http.Client
	base string
}

func newClient(base string) *client {
	return &client{
		hc:   &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}},
		base: base,
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do runs one job to completion. A refused, failed or unreadable job comes
// back with its outcome and the error that explains it.
func (c *client) do(spec server.JobSpec) (jobRun, error) {
	jr := jobRun{spec: spec, outcome: outcomeFailed}
	body, err := json.Marshal(spec)
	if err != nil {
		return jr, err
	}
	t0 := stampNow()
	resp, err := c.hc.Post(c.base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return jr, err
	}
	var st server.JobStatus
	err = decodeBody(resp, &st)
	switch resp.StatusCode {
	case http.StatusAccepted:
	case http.StatusTooManyRequests:
		jr.outcome = outcomeRefused429
		return jr, fmt.Errorf("submit refused: 429")
	case http.StatusServiceUnavailable:
		jr.outcome = outcomeRefused503
		return jr, fmt.Errorf("submit refused: 503")
	default:
		return jr, fmt.Errorf("submit: HTTP %d", resp.StatusCode)
	}
	if err != nil {
		return jr, err
	}
	jr.id = st.ID

	resp, err = c.hc.Get(c.base + "/jobs/" + jr.id + "/stream")
	if err != nil {
		return jr, err
	}
	dec := json.NewDecoder(resp.Body)
	for {
		var e server.Event
		if err := dec.Decode(&e); err != nil {
			if errors.Is(err, io.EOF) {
				break // the stream closes once the job is terminal
			}
			resp.Body.Close()
			return jr, fmt.Errorf("stream %s: %w", jr.id, err)
		}
		if e.State.Terminal() {
			break
		}
	}
	_, _ = io.Copy(io.Discard, resp.Body) // let the connection be reused
	resp.Body.Close()

	resp, err = c.hc.Get(c.base + "/jobs/" + jr.id + "/result")
	if err != nil {
		return jr, err
	}
	var res struct {
		Result json.RawMessage `json:"result"`
	}
	if err := decodeBody(resp, &res); err != nil || resp.StatusCode != http.StatusOK {
		return jr, fmt.Errorf("result %s: HTTP %d: %v", jr.id, resp.StatusCode, err)
	}
	jr.net, jr.latency = t0.since()
	var compact bytes.Buffer
	if err := json.Compact(&compact, res.Result); err != nil {
		return jr, err
	}
	jr.result = compact.Bytes()
	jr.outcome = outcomeOK
	return jr, nil
}

// status fetches a job's lifecycle timestamps.
func (c *client) status(id string) (server.JobStatus, error) {
	var st server.JobStatus
	resp, err := c.hc.Get(c.base + "/jobs/" + id)
	if err != nil {
		return st, err
	}
	if err := decodeBody(resp, &st); err != nil || resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("status %s: HTTP %d: %v", id, resp.StatusCode, err)
	}
	return st, nil
}

// decodeBody decodes and closes a JSON response body.
func decodeBody(resp *http.Response, v any) error {
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(v)
}

// runJob runs the generator's next job. Traced runs also fetch the job's
// status for its lifecycle timestamps.
func runJob(cl *client, gen *jobGen, traced bool) jobRun {
	jr, err := cl.do(gen.next())
	if err == nil && traced {
		if jr.status, err = cl.status(jr.id); err != nil {
			jr.outcome = outcomeFailed
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: serve-fleet job %s: %v\n", jr.id, err)
	}
	return jr
}

// drive runs jobs until both n jobs have run and budget has passed. It
// returns the runs and the net and wall time they took.
func drive(cl *client, gen *jobGen, n int, budget time.Duration) ([]jobRun, time.Duration, time.Duration) {
	var runs []jobRun
	start := stampNow()
	for len(runs) < n || time.Since(start.wall) < budget {
		runs = append(runs, runJob(cl, gen, false))
	}
	net, wall := start.since()
	return runs, net, wall
}

// checkJobs compares every result with a local in-process run of its spec,
// marking differences as mismatches, then verifies the coordinator's ledger
// holds exactly the expected records. It returns the outcome tally.
func checkJobs(rep *report, rg *rig, runs []jobRun) (tally, error) {
	local := map[string][]byte{}
	var t tally
	var accepted, merges int64
	for i := range runs {
		jr := &runs[i]
		if jr.outcome == outcomeOK {
			key, err := json.Marshal(jr.spec)
			if err != nil {
				return t, err
			}
			want, ok := local[string(key)]
			if !ok {
				spec := jr.spec
				if err := spec.Normalize(); err != nil {
					return t, err
				}
				res, err := server.Run(context.Background(), spec, nil, nil)
				if err != nil {
					return t, err
				}
				if want, err = json.Marshal(res); err != nil {
					return t, err
				}
				local[string(key)] = want
			}
			if !bytes.Equal(jr.result, want) {
				jr.outcome = outcomeMismatch
				rep.check(false, "serve-fleet: %s (%s) differs from the local run", jr.id, jr.spec.Kind)
			}
		}
		if jr.id != "" {
			accepted++
		}
		if jr.spec.Fleet && (jr.outcome == outcomeOK || jr.outcome == outcomeMismatch) {
			merges++
		}
		t.add(jr.outcome)
	}
	// Every accepted job leaves a queued and a terminal record; every
	// finished fleet job also leaves its merge provenance.
	want := 2*accepted + merges
	if err := rg.waitRecords(want); err != nil {
		rep.checkErr(err)
		return t, nil
	}
	vr, err := store.VerifyChain(rg.disk)
	rep.checkErr(err)
	rep.check(err != nil || int64(vr.Records) == want, "serve-fleet: ledger verifies %d records, want %d", vr.Records, want)
	return t, nil
}

// latencies returns the client latencies of the successful jobs of one kind
// ("" for all).
func latencies(runs []jobRun, kind server.JobKind) []float64 {
	var out []float64
	for _, jr := range runs {
		if jr.outcome == outcomeOK && (kind == "" || jr.spec.Kind == kind) {
			out = append(out, msOf(jr.net))
		}
	}
	return out
}

// storeDir makes a fresh store directory under benchDir.
func storeDir() (string, error) {
	dir := benchDir()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(dir, "serve-store-")
}

// withRig starts a rig on a fresh store directory, runs f, and tears the
// rig and its directory down.
func withRig(traced bool, f func(rg *rig) error) error {
	dir, err := storeDir()
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	rg, err := startRig(dir, traced)
	if err != nil {
		return err
	}
	err = f(rg)
	return errors.Join(err, rg.close())
}

func runServe(seed int64, budget time.Duration, rep *report) error {
	mem := startMemSampler()
	defer mem.Stop()
	resume := pauseGC()
	defer resume()
	var setups []float64
	for i := 0; i < setupReps-1; i++ {
		runtime.GC()
		t0 := time.Now()
		if err := withRig(false, func(*rig) error {
			setups = append(setups, time.Since(t0).Seconds())
			return nil
		}); err != nil {
			return err
		}
	}
	runtime.GC()
	t0 := time.Now()
	return withRig(false, func(rg *rig) error {
		setups = append(setups, time.Since(t0).Seconds())
		resume()
		cl := newClient(rg.url)
		defer cl.close()
		runs, elapsed, wall := drive(cl, newJobGen(seed), minJobs, budget)
		peak := mem.Stop()
		t, err := checkJobs(rep, rg, runs)
		if err != nil {
			return err
		}
		all := summarize(latencies(runs, ""))
		replay := summarize(latencies(runs, server.KindReplay))
		leak := summarize(latencies(runs, server.KindLeak))
		rep.attempted, rep.failed = t.attempted(), t.failed()
		rep.set("setup_s", "s", median(setups))
		rep.set("mem_peak_mb", "MB", peak)
		rep.set("work_per_s", "1/s", float64(t.byOutcome[outcomeOK])/elapsed.Seconds())
		rep.set("latency_p50_ms", "ms", all.P50)
		rep.set("latency_p90_ms", "ms", all.P90)
		rep.note("serve-fleet: jobs_per_s %.3f jobs/s over %d jobs in %.2fs net (%.3f in %.2fs wall); job_fail_ratio %.4f",
			float64(t.byOutcome[outcomeOK])/elapsed.Seconds(), len(runs), elapsed.Seconds(),
			float64(t.byOutcome[outcomeOK])/wall.Seconds(), wall.Seconds(), t.failRatio())
		rep.note("serve-fleet: replay_job ms %v", replay)
		rep.note("serve-fleet: leak_job ms %v", leak)
		rep.note("serve-fleet: all jobs ms %v; setup n=%d", all, len(setups))
		return nil
	})
}

// traceServe splits a fixed traceJobs-long job sequence into its layers.
// An untraced rig runs the same sequence alongside, one job each in turn
// and in alternating order, for the tracing overhead; only the traced rig
// carries the wrappers.
func traceServe(seed int64, rep *report) error {
	return withRig(false, func(plainRig *rig) error {
		return withRig(true, func(rg *rig) error {
			pc, cl := newClient(plainRig.url), newClient(rg.url)
			defer pc.close()
			defer cl.close()
			pg, tg := newJobGen(seed), newJobGen(seed)
			var plainRuns, runs []jobRun
			var plain, traced time.Duration
			for i := 0; i < traceJobs; i++ {
				for _, withTrace := range [][2]bool{{true, false}, {false, true}}[i%2] {
					t0 := time.Now()
					if withTrace {
						runs = append(runs, runJob(cl, tg, true))
						traced += time.Since(t0)
					} else {
						plainRuns = append(plainRuns, runJob(pc, pg, false))
						plain += time.Since(t0)
					}
				}
			}
			for _, c := range []struct {
				rg   *rig
				runs []jobRun
			}{{plainRig, plainRuns}, {rg, runs}} {
				t, err := checkJobs(rep, c.rg, c.runs)
				if err != nil {
					return err
				}
				rep.attempted += t.attempted()
				rep.failed += t.failed()
			}
			return traceServeLayers(rep, rg, runs, plain, traced)
		})
	})
}

// traceServeLayers reports the per-layer metrics of the traced rig's jobs.
func traceServeLayers(rep *report, rg *rig, runs []jobRun, plain, traced time.Duration) error {
	var queue, replayRun, leakRun, overhead []float64
	for _, jr := range runs {
		if jr.outcome != outcomeOK {
			continue
		}
		st := jr.status
		queue = append(queue, msOf(st.Started.Sub(st.Submitted)))
		run := msOf(st.Finished.Sub(st.Started))
		if jr.spec.Kind == server.KindReplay {
			replayRun = append(replayRun, run)
		} else {
			leakRun = append(leakRun, run)
		}
		overhead = append(overhead, msOf(jr.latency-st.Finished.Sub(st.Submitted)))
	}

	// Shard times as the coordinator saw them, from the ledger's
	// fleet-merge provenance.
	recs, err := rg.st.Records()
	if err != nil {
		return err
	}
	var shardMS []float64
	for _, rec := range recs {
		if rec.Kind != store.KindFleetMerge {
			continue
		}
		data, err := rg.st.Artifact(rec.ResultDigest)
		if err != nil {
			return err
		}
		var prov []fleet.ShardProvenance
		if err := json.Unmarshal(data, &prov); err != nil {
			return err
		}
		for _, p := range prov {
			shardMS = append(shardMS, float64(p.Millis))
		}
	}
	workerMS := ms(rg.shards.durations())
	dispatched := rg.reg.Snapshot().Counters["fleet/shards_dispatched"]

	tv := time.Now()
	if _, err := store.VerifyChain(rg.disk); err != nil {
		return err
	}
	verify := time.Since(tv)
	appends, puts, lines := rg.timed.writes()

	rep.set("server.submit_ms_p50", "ms", median(ms(rg.submits.durations())))
	rep.set("server.queue_wait_ms_p50", "ms", median(queue))
	rep.set("server.replay_run_ms_p50", "ms", median(replayRun))
	rep.set("server.leak_run_ms_p50", "ms", median(leakRun))
	rep.set("server.http_overhead_ms_p50", "ms", median(overhead))
	rep.set("fleet.shard_ms_p50", "ms", median(shardMS))
	rep.set("fleet.worker_shard_ms_p50", "ms", median(workerMS))
	rep.set("fleet.dispatch_overhead_ms", "ms", mean(shardMS)-mean(workerMS))
	rep.set("fleet.attempts_per_shard", "ratio", float64(dispatched)/float64(len(shardMS)))
	rep.set("store.append_ms_p90", "ms", quantile(ms(appends), 0.9))
	rep.set("store.put_artifact_ms_p90", "ms", quantile(ms(puts), 0.9))
	rep.set("store.records_per_append", "ratio", float64(lines)/float64(len(appends)))
	rep.set("store.flushes", "count", float64(rg.st.Stats().Flushes))
	rep.set("store.verify_s", "s", verify.Seconds())
	rep.set("serve.trace_overhead_pct", "%", 100*(traced.Seconds()-plain.Seconds())/plain.Seconds())
	rep.note("serve-fleet traced: %d jobs in %v (untraced %v); %d shards, %d ledger appends, %d artifact puts",
		len(runs), traced, plain, len(shardMS), len(appends), len(puts))
	return nil
}
