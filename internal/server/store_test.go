package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"secdir/internal/config"
	"secdir/internal/metrics"
	"secdir/internal/store"
)

// storedServer is a testServer with a disk-backed experiment store attached,
// plus the pieces a test needs to "restart" it against the same directory.
type storedServer struct {
	*testServer
	st  *store.Store
	dir string
	rc  *StoreRecovery
}

// newStoredServer builds a server over a disk store at dir, replaying
// whatever ledger is already there.
func newStoredServer(t *testing.T, cfg config.ServerConfig, dir string) *storedServer {
	t.Helper()
	b, err := store.OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	// A tight flush interval keeps tests fast without changing semantics.
	st, err := store.Open(b, store.Options{FlushInterval: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.New()
	srv, err := New(cfg, reg)
	if err != nil {
		t.Fatal(err)
	}
	rc, err := srv.AttachStore(st)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	s := &storedServer{
		testServer: &testServer{srv: srv, ts: ts, reg: reg},
		st:         st,
		dir:        dir,
		rc:         rc,
	}
	t.Cleanup(func() { s.shutdown(t) })
	return s
}

// shutdown drains the server and closes the store; safe to call twice.
func (s *storedServer) shutdown(t *testing.T) {
	t.Helper()
	if s.ts == nil {
		return
	}
	s.ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_, _ = s.srv.Drain(ctx)
	if err := s.st.Close(); err != nil {
		t.Errorf("store close: %v", err)
	}
	s.ts = nil
}

// resultBytes fetches a done job's raw result body.
func (s *storedServer) resultBytes(t *testing.T, id string) []byte {
	t.Helper()
	resp, err := http.Get(s.ts.URL + "/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result %s: HTTP %d", id, resp.StatusCode)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestStoreRestartServesResultsByteIdentically: a job completed before a
// restart answers /jobs/{id}/result with the exact same bytes afterwards, and
// the recovered status keeps its terminal state and timestamps.
func TestStoreRestartServesResultsByteIdentically(t *testing.T) {
	dir := t.TempDir()
	s := newStoredServer(t, quickConfig(), dir)

	st := s.submit(t, quickReplay(), 0)
	s.waitState(t, st.ID, StateDone, 30*time.Second)
	before := s.resultBytes(t, st.ID)
	statusBefore := s.getStatus(t, st.ID)

	// A canceled job must come back canceled, too.
	huge := s.submit(t, hugeReplay(), 0)
	s.waitState(t, huge.ID, StateRunning, 30*time.Second)
	s.cancelJob(t, huge.ID)
	s.waitState(t, huge.ID, StateCanceled, 30*time.Second)

	s.shutdown(t)

	s2 := newStoredServer(t, quickConfig(), dir)
	if s2.rc.Restored != 2 {
		t.Fatalf("restart restored %d jobs, want 2 (dropped: %v)", s2.rc.Restored, s2.rc.Dropped)
	}
	after := s2.resultBytes(t, st.ID)
	if !bytes.Equal(before, after) {
		t.Errorf("result bytes changed across restart:\nbefore: %s\nafter:  %s", before, after)
	}
	statusAfter := s2.getStatus(t, st.ID)
	if statusAfter.State != StateDone ||
		!statusAfter.Submitted.Equal(statusBefore.Submitted) ||
		!statusAfter.Finished.Equal(statusBefore.Finished) {
		t.Errorf("recovered status diverges: before %+v, after %+v", statusBefore, statusAfter)
	}
	if got := s2.getStatus(t, huge.ID); got.State != StateCanceled {
		t.Errorf("canceled job came back %s, want %s", got.State, StateCanceled)
	}

	// The recovered ledger still verifies end to end.
	b, err := store.OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if _, err := store.VerifyChain(b); err != nil {
		t.Errorf("post-restart chain: %v", err)
	}
}

// TestStoreRequeuedJobsResubmitOnRestart: a job still queued when the server
// drains is persisted as requeued and re-enters the queue — under its
// original ID — when a new server replays the ledger, then runs to done.
func TestStoreRequeuedJobsResubmitOnRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := quickConfig()
	cfg.Workers = 1
	s := newStoredServer(t, cfg, dir)

	// One job hogs the single worker; the next stays queued.
	huge := s.submit(t, hugeReplay(), 0)
	s.waitState(t, huge.ID, StateRunning, 30*time.Second)
	queued := s.submit(t, quickReplay(), 0)

	s.ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	requeued, _ := s.srv.Drain(ctx)
	cancel()
	if len(requeued) != 1 || requeued[0] != queued.ID {
		t.Fatalf("drain requeued %v, want [%s]", requeued, queued.ID)
	}
	if err := s.st.Close(); err != nil {
		t.Fatal(err)
	}
	s.ts = nil

	s2 := newStoredServer(t, quickConfig(), dir)
	if len(s2.rc.Resubmitted) != 1 || s2.rc.Resubmitted[0] != queued.ID {
		t.Fatalf("restart resubmitted %v, want [%s] (dropped: %v)", s2.rc.Resubmitted, queued.ID, s2.rc.Dropped)
	}
	s2.waitState(t, queued.ID, StateDone, 30*time.Second)

	// Its completion lands in the same chain, which still verifies.
	recs, err := s2.st.Records()
	if err != nil {
		t.Fatal(err)
	}
	var states []string
	for _, rec := range recs {
		if rec.JobID == queued.ID {
			states = append(states, rec.State)
		}
	}
	want := []string{"queued", "requeued", "queued", "done"}
	if !reflect.DeepEqual(states, want) {
		t.Errorf("job %s ledger states %v, want %v", queued.ID, states, want)
	}
}

// TestVersionzMatchesLedgerBuild: /versionz serves exactly the BuildInfo
// every ledger record carries, so an operator can check a running server
// against its store.
func TestVersionzMatchesLedgerBuild(t *testing.T) {
	dir := t.TempDir()
	s := newStoredServer(t, quickConfig(), dir)

	resp, err := http.Get(s.ts.URL + "/versionz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/versionz: HTTP %d", resp.StatusCode)
	}
	var got store.BuildInfo
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got != store.Build() {
		t.Errorf("/versionz = %+v, want %+v", got, store.Build())
	}

	st := s.submit(t, quickReplay(), 0)
	s.waitState(t, st.ID, StateDone, 30*time.Second)
	recs, err := s.st.Records()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("no ledger records after a completed job")
	}
	for _, rec := range recs {
		if rec.Build != got {
			t.Errorf("record %d build %+v diverges from /versionz %+v", rec.Index, rec.Build, got)
		}
	}
}

// TestStorezReportsChainHead: /storez exposes the chain head and artifact
// counts once jobs have landed, and 404s on a store-less server.
func TestStorezReportsChainHead(t *testing.T) {
	s := newTestServer(t, quickConfig())
	resp, err := http.Get(s.ts.URL + "/storez")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/storez without a store: HTTP %d, want 404", resp.StatusCode)
	}

	dir := t.TempDir()
	ss := newStoredServer(t, quickConfig(), dir)
	st := ss.submit(t, quickReplay(), 0)
	ss.waitState(t, st.ID, StateDone, 30*time.Second)
	if err := ss.st.Flush(); err != nil {
		t.Fatal(err)
	}

	resp, err = http.Get(ss.ts.URL + "/storez")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/storez: HTTP %d", resp.StatusCode)
	}
	var body storezBody
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Stats.Records < 2 || body.Stats.HeadHash == "" || body.ArtifactsOnBackend < 1 {
		t.Errorf("thin /storez after a done job: %+v", body)
	}
	if body.LastError != "" {
		t.Errorf("unexpected store error surfaced: %s", body.LastError)
	}
}

// copyTree copies a store directory into a fresh temp dir, so a test never
// appends to a checked-in fixture.
func copyTree(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	err := filepath.WalkDir(src, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, p)
		if err != nil {
			return err
		}
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	return dst
}

// resultField extracts the compact "result" member of a /jobs/{id}/result
// body.
func resultField(t *testing.T, body []byte) []byte {
	t.Helper()
	var rb struct {
		Result json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(body, &rb); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := json.Compact(&buf, rb.Result); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestStoreReplaysLegacyEngineLedger: a ledger written when job specs still
// carried engine_shards/engine_window replays on today's serial engine. The
// done job serves its recorded result, and the job whose last record is
// "queued" re-runs to that same result.
func TestStoreReplaysLegacyEngineLedger(t *testing.T) {
	dir := copyTree(t, filepath.Join("..", "store", "testdata", "legacy-engine-ledger"))
	s := newStoredServer(t, quickConfig(), dir)
	if s.rc.Restored != 1 || len(s.rc.Resubmitted) != 1 || s.rc.Resubmitted[0] != "job-2" || len(s.rc.Dropped) != 0 {
		t.Fatalf("legacy replay: %+v, want job-1 restored and job-2 resubmitted", s.rc)
	}
	recs, err := s.st.Records()
	if err != nil {
		t.Fatal(err)
	}
	recorded, err := s.st.Artifact(recs[1].ResultDigest)
	if err != nil {
		t.Fatal(err)
	}
	if got := resultField(t, s.resultBytes(t, "job-1")); !bytes.Equal(got, recorded) {
		t.Errorf("job-1 result %s, recorded %s", got, recorded)
	}
	s.waitState(t, "job-2", StateDone, 30*time.Second)
	if got := resultField(t, s.resultBytes(t, "job-2")); !bytes.Equal(got, recorded) {
		t.Errorf("job-2 re-ran serially to %s, recorded sharded result %s", got, recorded)
	}

	s.shutdown(t)
	b, err := store.OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if _, err := store.VerifyChain(b); err != nil {
		t.Errorf("legacy chain after replay: %v", err)
	}
}

// TestSubmitRejectsRemovedEngineOption: the sharded engine is gone, and a
// spec that still asks for it fails loudly rather than running serially
// unannounced.
func TestSubmitRejectsRemovedEngineOption(t *testing.T) {
	s := newTestServer(t, quickConfig())
	resp, err := http.Post(s.ts.URL+"/jobs", "application/json",
		strings.NewReader(`{"kind":"replay","workload":"uniform:256","engine_shards":2}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var e apiError
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(e.Error, "engine_shards") {
		t.Fatalf("engine_shards spec: HTTP %d %q, want 400 naming engine_shards", resp.StatusCode, e.Error)
	}
}

// TestSubmitRecordsQueuedBeforeWorkersSeeJob: under many concurrent quick
// submissions to a busy pool, every 202 still reports "queued", and every
// job's "queued" ledger record precedes its terminal record — so a restart
// (last record wins) can never re-queue a finished job.
func TestSubmitRecordsQueuedBeforeWorkersSeeJob(t *testing.T) {
	cfg := quickConfig()
	cfg.Workers = 4
	cfg.QueueDepth = 64
	s := newStoredServer(t, cfg, t.TempDir())

	const jobs = 48
	body, err := json.Marshal(quickReplay())
	if err != nil {
		t.Fatal(err)
	}
	statuses := make([]JobStatus, jobs)
	errs := make([]error, jobs)
	var wg sync.WaitGroup
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(s.ts.URL+"/jobs", "application/json", bytes.NewReader(body))
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusAccepted {
				errs[i] = fmt.Errorf("HTTP %d", resp.StatusCode)
				return
			}
			errs[i] = json.NewDecoder(resp.Body).Decode(&statuses[i])
		}(i)
	}
	wg.Wait()
	for i, st := range statuses {
		if errs[i] != nil {
			t.Fatalf("submit %d: %v", i, errs[i])
		}
		if st.State != StateQueued {
			t.Errorf("submit %d (%s): 202 reported %s, want %s", i, st.ID, st.State, StateQueued)
		}
	}
	for _, st := range statuses {
		s.waitState(t, st.ID, StateDone, 30*time.Second)
	}

	recs, err := s.st.Records()
	if err != nil {
		t.Fatal(err)
	}
	queuedAt := map[string]int64{}
	doneAt := map[string]int64{}
	for _, rec := range recs {
		switch rec.State {
		case string(StateQueued):
			queuedAt[rec.JobID] = rec.Index
		case string(StateDone):
			doneAt[rec.JobID] = rec.Index
		}
	}
	for _, st := range statuses {
		q, okQ := queuedAt[st.ID]
		d, okD := doneAt[st.ID]
		if !okQ || !okD || q >= d {
			t.Errorf("%s: queued record %d (present %v), done record %d (present %v); queued must come first",
				st.ID, q, okQ, d, okD)
		}
	}
}

// gatedBackend is an in-memory backend whose writes wait until release is
// closed. With a one-slot store queue it holds the store's writer on the
// first write and then blocks every append after the next one.
type gatedBackend struct {
	*store.MemBackend
	release chan struct{}
}

func (g *gatedBackend) PutArtifact(digest string, data []byte) error {
	<-g.release
	return g.MemBackend.PutArtifact(digest, data)
}

func (g *gatedBackend) AppendLedger(lines [][]byte) error {
	<-g.release
	return g.MemBackend.AppendLedger(lines)
}

// goroutineIn reports whether some goroutine's stack contains every one of
// the given function names.
func goroutineIn(funcs ...string) bool {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	for _, g := range strings.Split(string(buf), "\n\n") {
		all := true
		for _, f := range funcs {
			all = all && strings.Contains(g, f)
		}
		if all {
			return true
		}
	}
	return false
}

// TestTerminalRecordAppendedBeforeStatePublished: a job's terminal ledger
// record is appended before the job reports the terminal state, so a client
// that sees "done" always finds the done record. The store's writer is held,
// so the worker blocks inside the store while it records the finished job;
// at that point the job must still be running.
func TestTerminalRecordAppendedBeforeStatePublished(t *testing.T) {
	gb := &gatedBackend{MemBackend: store.NewMem(), release: make(chan struct{})}
	st, err := store.Open(gb, store.Options{FlushEvery: 1, QueueDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Cleanups run last-registered first: open the gate, drain the server,
	// then close the store.
	t.Cleanup(func() {
		if err := st.Close(); err != nil {
			t.Errorf("store close: %v", err)
		}
	})
	cfg := quickConfig()
	cfg.Workers = 1
	s := newTestServer(t, cfg)
	released := false
	t.Cleanup(func() {
		if !released {
			close(gb.release)
		}
	})
	if _, err := s.srv.AttachStore(st); err != nil {
		t.Fatal(err)
	}

	// The queued record occupies the writer, which then waits on the gate.
	job := s.submit(t, quickReplay(), 0)
	deadline := time.Now().Add(30 * time.Second)
	for !goroutineIn("server.(*Server).runJob", "store.(*batcher).enqueue") {
		if time.Now().After(deadline) {
			t.Fatal("the worker never blocked in the store")
		}
		time.Sleep(time.Millisecond)
	}
	if got := s.getStatus(t, job.ID).State; got != StateRunning {
		t.Fatalf("job reports %s before its terminal record is appended", got)
	}

	close(gb.release)
	released = true
	s.waitState(t, job.ID, StateDone, 30*time.Second)
	recs, err := st.Records()
	if err != nil {
		t.Fatal(err)
	}
	var states []string
	for _, rec := range recs {
		states = append(states, rec.State)
	}
	if want := []string{"queued", "done"}; !reflect.DeepEqual(states, want) {
		t.Errorf("ledger states %v, want %v", states, want)
	}
}
