package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"secdir/internal/fleet"
	"secdir/internal/leakage"
	"secdir/internal/metrics"
)

// TestShardEndpoint exercises the worker face every server exposes:
// POST /fleet/shard streams the requested trial range as NDJSON, terminated
// by a counted EOF marker, and the trials match a direct leakage.RunShard of
// the same range exactly.
func TestShardEndpoint(t *testing.T) {
	s := newTestServer(t, quickConfig())

	req := fleet.ShardRequest{
		Config:   "skylake-unfixed",
		Strategy: "evictreload",
		Cores:    8,
		Trials:   20,
		Rounds:   8,
		Seed:     5,
		Start:    5,
		Count:    10,
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(s.ts.URL+"/fleet/shard", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("shard HTTP %d, want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q, want application/x-ndjson", ct)
	}

	var got []leakage.TrialResult
	sawEOF := false
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var line fleet.ShardLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		switch {
		case line.Err != "":
			t.Fatalf("shard stream error: %s", line.Err)
		case line.EOF:
			if line.Count != req.Count {
				t.Fatalf("eof count = %d, want %d", line.Count, req.Count)
			}
			sawEOF = true
		case line.Trial != nil:
			got = append(got, *line.Trial)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !sawEOF {
		t.Fatal("shard stream ended without an eof marker")
	}

	// The stream arrives in completion order; RunShard returns index order.
	sort.Slice(got, func(i, j int) bool { return got[i].Index < got[j].Index })
	opts, err := req.Options()
	if err != nil {
		t.Fatal(err)
	}
	want, err := leakage.RunShard(context.Background(), opts, req.Start, req.Count, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("streamed shard diverges from direct RunShard:\ngot:  %+v\nwant: %+v", got, want)
	}

	// A bad config name is rejected before any engine spins up.
	bad, _ := json.Marshal(fleet.ShardRequest{Config: "nosuch", Strategy: "evictreload", Cores: 8, Trials: 10, Count: 10})
	resp2, err := http.Post(s.ts.URL+"/fleet/shard", "application/json", bytes.NewReader(bad))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Errorf("bad shard request HTTP %d, want 400", resp2.StatusCode)
	}
}

// TestOversizedRequestsRejected: trial, round and eviction-set sizes far beyond
// any measurement are refused with a 400 on both endpoints that accept them,
// before anything is allocated for them.
func TestOversizedRequestsRejected(t *testing.T) {
	s := newTestServer(t, quickConfig())
	const huge = 1 << 40

	body, _ := json.Marshal(fleet.ShardRequest{Config: "secdir", Strategy: "primeprobe", Cores: 8, Trials: huge, Rounds: 16, Count: 1})
	resp, err := http.Post(s.ts.URL+"/fleet/shard", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("oversized shard request HTTP %d, want 400", resp.StatusCode)
	}

	for _, spec := range []JobSpec{
		{Kind: KindLeak, Trials: huge},
		{Kind: KindLeak, Rounds: leakage.MaxRounds + 2},
		{Kind: KindLeak, Resamples: leakage.MaxResamples + 1},
		{Kind: KindLeaderboard, EvictionLines: leakage.MaxEvictionLines + 1},
		{Kind: KindAttack, EvictionLines: huge},
	} {
		s.submit(t, spec, http.StatusBadRequest)
	}
}

// TestFleetJobEndToEnd drives a fleet leak job through the public job API of
// a coordinator server backed by two real worker servers, and demands the
// result match the same job run locally — byte-for-byte at the JSON layer,
// since both decode into the same leakage.Report.
func TestFleetJobEndToEnd(t *testing.T) {
	w1 := newTestServer(t, quickConfig())
	w2 := newTestServer(t, quickConfig())
	co := newTestServer(t, quickConfig())
	co.srv.AttachFleet(fleet.New(fleet.Config{
		Workers: []string{w1.ts.URL, w2.ts.URL},
		Metrics: co.reg,
	}))

	spec := JobSpec{
		Kind:       KindLeak,
		Fleet:      true,
		Configs:    []string{"skylake-unfixed"},
		Strategies: []string{"evictreload"},
		Trials:     30,
		Rounds:     8,
		Seed:       1,
	}

	// A plain server has no coordinator: fleet submissions are rejected
	// up front, not queued to fail later.
	w1.submit(t, spec, http.StatusBadRequest)

	st := co.submit(t, spec, 0)
	co.waitState(t, st.ID, StateDone, 120*time.Second)
	var fleetRes struct {
		Result leakage.Report `json:"result"`
	}
	co.getResult(t, st.ID, &fleetRes)

	local := spec
	local.Fleet = false
	st2 := co.submit(t, local, 0)
	co.waitState(t, st2.ID, StateDone, 120*time.Second)
	var localRes struct {
		Result leakage.Report `json:"result"`
	}
	co.getResult(t, st2.ID, &localRes)

	if !reflect.DeepEqual(fleetRes.Result, localRes.Result) {
		t.Errorf("fleet job result diverges from local job:\nfleet: %+v\nlocal: %+v",
			fleetRes.Result, localRes.Result)
	}

	// The coordinator reports both workers alive at /fleet/workerz and in
	// the /metricz fleet section.
	resp, err := http.Get(co.ts.URL + "/fleet/workerz")
	if err != nil {
		t.Fatal(err)
	}
	var ws []fleet.WorkerStatus
	if err := json.NewDecoder(resp.Body).Decode(&ws); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(ws) != 2 {
		t.Fatalf("workerz has %d workers, want 2: %+v", len(ws), ws)
	}
	for _, w := range ws {
		if !w.Alive || !w.Static || w.ShardsDone == 0 {
			t.Errorf("worker %s: alive=%v static=%v done=%d, want a live static worker with shards done",
				w.URL, w.Alive, w.Static, w.ShardsDone)
		}
	}

	mresp, err := http.Get(co.ts.URL + "/metricz")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var mb struct {
		Fleet    []fleet.WorkerStatus `json:"fleet"`
		Snapshot metrics.Snapshot     `json:"snapshot"`
	}
	if err := json.NewDecoder(mresp.Body).Decode(&mb); err != nil {
		t.Fatal(err)
	}
	if len(mb.Fleet) != 2 {
		t.Errorf("/metricz fleet section has %d workers, want 2", len(mb.Fleet))
	}
	if n := mb.Snapshot.Gauges["fleet/workers_live"]; n != 2 {
		t.Errorf("fleet/workers_live = %v, want 2", n)
	}
	if mb.Snapshot.Counters["fleet/shards_dispatched"] == 0 {
		t.Error("fleet/shards_dispatched = 0 after a fleet job")
	}

	// A non-coordinator 404s the fleet read endpoints.
	resp404, err := http.Get(w1.ts.URL + "/fleet/workerz")
	if err != nil {
		t.Fatal(err)
	}
	resp404.Body.Close()
	if resp404.StatusCode != http.StatusNotFound {
		t.Errorf("workerz on a plain server: HTTP %d, want 404", resp404.StatusCode)
	}
}

// TestFleetDynamicRegistration starts a coordinator with an empty fleet:
// sweeps fail until a worker registers over HTTP, then succeed against the
// dynamically joined worker.
func TestFleetDynamicRegistration(t *testing.T) {
	w := newTestServer(t, quickConfig())
	co := newTestServer(t, quickConfig())
	co.srv.AttachFleet(fleet.New(fleet.Config{Metrics: metrics.New()}))

	spec := JobSpec{
		Kind:       KindLeak,
		Fleet:      true,
		Configs:    []string{"secdir"},
		Strategies: []string{"evictreload"},
		Trials:     20,
		Rounds:     4,
		Seed:       2,
	}

	st := co.submit(t, spec, 0)
	js := co.waitState(t, st.ID, StateFailed, 30*time.Second)
	if !strings.Contains(js.Err, "no workers") {
		t.Errorf("empty-fleet job error = %q, want a no-workers failure", js.Err)
	}

	iv, err := fleet.RegisterWorker(context.Background(), nil, co.ts.URL, w.ts.URL, 2)
	if err != nil {
		t.Fatal(err)
	}
	if iv <= 0 {
		t.Fatalf("registration returned heartbeat interval %v, want > 0", iv)
	}

	st2 := co.submit(t, spec, 0)
	co.waitState(t, st2.ID, StateDone, 120*time.Second)

	resp, err := http.Get(co.ts.URL + "/fleet/workerz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ws []fleet.WorkerStatus
	if err := json.NewDecoder(resp.Body).Decode(&ws); err != nil {
		t.Fatal(err)
	}
	if len(ws) != 1 || ws[0].Static || !ws[0].Alive || ws[0].PoolWidth != 2 {
		t.Errorf("workerz after dynamic registration = %+v, want one live dynamic worker with pool width 2", ws)
	}
}
