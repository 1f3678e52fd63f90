package main

import (
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"secdir/internal/addr"
	"secdir/internal/metrics"
	"secdir/internal/server"
	"secdir/internal/store"
)

func TestQuantileSelection(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5} // 1..10, unsorted
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.5, 5.5}, {0.9, 9.1}, {1, 10},
	} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 10 {
		t.Error("quantile sorted its input in place")
	}
	if got := quantile([]float64{42}, 0.9); got != 42 {
		t.Errorf("one sample: got %v", got)
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("no samples must give NaN, not a number that looks measured")
	}
}

func TestSummarizeCountsSamples(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	s := summarize(xs)
	if s.N != 200 || s.P50 != 100.5 || math.Abs(s.P90-180.1) > 1e-9 {
		t.Fatalf("summary %+v", s)
	}
	// 181..200 lie above p90 = 180.1: the tail behind the estimate.
	if s.Beyond90 != 20 {
		t.Fatalf("Beyond90 = %d, want 20", s.Beyond90)
	}
	if got := summarize([]float64{3, 3, 3}); got.Beyond90 != 0 || got.P90 != 3 {
		t.Fatalf("ties: %+v", got)
	}
}

func TestGroupedQuantilesWeighGroupsAlike(t *testing.T) {
	// Six disjoint groups of three samples, as six defenses over three
	// sweeps. Pooled, the median falls between the top of group 2 and the
	// bottom of group 3; grouped, each group contributes its own median.
	var groups [][]float64
	want50, want90 := 0.0, 0.0
	for g := 0; g < 6; g++ {
		base := math.Pow(10, float64(g))
		groups = append(groups, []float64{base, 2 * base, 3 * base})
		want50 += math.Log(2 * base)
		want90 += math.Log(2.8 * base)
	}
	groups = append(groups, nil) // empty groups are skipped
	p50, p90 := groupedQuantiles(groups)
	if math.Abs(p50-math.Exp(want50/6)) > 1e-9*p50 || math.Abs(p90-math.Exp(want90/6)) > 1e-9*p90 {
		t.Fatalf("grouped p50 %v p90 %v, want %v %v", p50, p90, math.Exp(want50/6), math.Exp(want90/6))
	}
	// An outlier in one group moves that group's p90 only, never the
	// median of the others.
	groups[0] = append(groups[0], 1e9)
	if q50, _ := groupedQuantiles(groups); q50 <= p50 || q50 > 1.3*p50 {
		t.Fatalf("one outlier moved the grouped median from %v to %v", p50, q50)
	}
	if a, b := groupedQuantiles(nil); !math.IsNaN(a) || !math.IsNaN(b) {
		t.Fatal("no samples must give NaN")
	}
}

func TestNetTimeSubtractsSteal(t *testing.T) {
	if got := netTime(time.Second, 150*time.Millisecond); got != 850*time.Millisecond {
		t.Errorf("net of 1s with 150ms steal = %v", got)
	}
	if got := netTime(time.Second, 0); got != time.Second {
		t.Errorf("no steal: %v", got)
	}
	// A 10 ms counter step over a 5 ms span must not yield a negative time.
	if got := netTime(5*time.Millisecond, 10*time.Millisecond); got != 500*time.Microsecond {
		t.Errorf("steal past the span: %v", got)
	}
	if s := stampNow(); s.steal < 0 || s.wall.IsZero() {
		t.Errorf("stamp %+v", s)
	}
}

func TestHistQuantileInterpolates(t *testing.T) {
	reg := metrics.New()
	h := reg.Histogram("x")
	for i := 0; i < 100; i++ {
		h.Observe(1000) // bucket 10 holds [512, 1024)
	}
	got := histQuantile(reg.Snapshot().Histograms["x"], 0.5)
	if got < 512 || got >= 1024 {
		t.Fatalf("p50 %v outside the bucket holding every sample", got)
	}
	if got != 768 { // halfway through [512, 1024)
		t.Fatalf("p50 = %v, want 768", got)
	}
	if !math.IsNaN(histQuantile(metrics.HistogramSnapshot{}, 0.5)) {
		t.Fatal("empty histogram must give NaN")
	}
}

func TestSelfTimeSubtraction(t *testing.T) {
	self, err := selfTime(100*time.Millisecond, 30*time.Millisecond, 45*time.Millisecond)
	if err != nil || self != 25*time.Millisecond {
		t.Fatalf("selfTime = %v, %v; want 25ms", self, err)
	}
	if self, err := selfTime(time.Second); err != nil || self != time.Second {
		t.Fatalf("no children: %v, %v", self, err)
	}
	if _, err := selfTime(10*time.Millisecond, 8*time.Millisecond, 5*time.Millisecond); err == nil {
		t.Fatal("children covering more than the span must be an error")
	}
}

func TestFailRatioCountsEveryMiss(t *testing.T) {
	var tl tally
	for _, o := range []outcome{outcomeOK, outcomeOK, outcomeOK, outcomeOK, outcomeOK, outcomeOK,
		outcomeRefused429, outcomeRefused503, outcomeFailed, outcomeMismatch} {
		tl.add(o)
	}
	if tl.attempted() != 10 || tl.failed() != 4 || tl.failRatio() != 0.4 {
		t.Fatalf("attempted %d failed %d ratio %v; want 10, 4, 0.4", tl.attempted(), tl.failed(), tl.failRatio())
	}
	var empty tally
	if empty.failRatio() != 0 {
		t.Fatal("nothing attempted must give ratio 0")
	}
}

// TestClientClassifiesRefusals drives the client against a server that
// refuses or fails submissions and checks each lands in its outcome.
func TestClientClassifiesRefusals(t *testing.T) {
	for _, c := range []struct {
		code int
		want outcome
	}{
		{http.StatusTooManyRequests, outcomeRefused429},
		{http.StatusServiceUnavailable, outcomeRefused503},
		{http.StatusInternalServerError, outcomeFailed},
	} {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(c.code)
			_, _ = w.Write([]byte(`{"error":"no"}`))
		}))
		cl := newClient(ts.URL)
		jr, err := cl.do(server.JobSpec{Kind: server.KindReplay})
		cl.close()
		ts.Close()
		if err == nil || jr.outcome != c.want {
			t.Errorf("HTTP %d: outcome %v, err %v; want outcome %v and an error", c.code, jr.outcome, err, c.want)
		}
	}
}

// failingBackend fails every call with its own error.
type failingBackend struct{ err error }

func (f failingBackend) PutArtifact(string, []byte) error   { return f.err }
func (f failingBackend) GetArtifact(string) ([]byte, error) { return nil, f.err }
func (f failingBackend) ListArtifacts() ([]string, error)   { return nil, f.err }
func (f failingBackend) AppendLedger([][]byte) error        { return f.err }
func (f failingBackend) ReadLedger() ([][]byte, error)      { return nil, f.err }
func (f failingBackend) Close() error                       { return f.err }

func TestTimedBackendPassesThrough(t *testing.T) {
	mem := store.NewMem()
	b := &timedBackend{Backend: mem}
	if err := b.PutArtifact("d1", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	lines := [][]byte{[]byte("a"), []byte("b")}
	if err := b.AppendLedger(lines); err != nil {
		t.Fatal(err)
	}
	if got, err := mem.GetArtifact("d1"); err != nil || string(got) != "payload" {
		t.Fatalf("artifact reached the backend as %q, %v", got, err)
	}
	if got, err := b.ReadLedger(); err != nil || !reflect.DeepEqual(got, lines) {
		t.Fatalf("ledger reads back %q, %v", got, err)
	}
	appends, puts, n := b.writes()
	if len(appends) != 1 || len(puts) != 1 || n != 2 {
		t.Fatalf("recorded %d appends, %d puts, %d lines; want 1, 1, 2", len(appends), len(puts), n)
	}

	boom := errors.New("disk full")
	fb := &timedBackend{Backend: failingBackend{boom}}
	if err := fb.PutArtifact("d", nil); err != boom {
		t.Fatalf("PutArtifact error %v, want the backend's own", err)
	}
	if err := fb.AppendLedger(lines); err != boom {
		t.Fatalf("AppendLedger error %v, want the backend's own", err)
	}
	if _, err := fb.GetArtifact("d"); err != boom {
		t.Fatalf("GetArtifact error %v, want the backend's own", err)
	}
}

func TestPackOpRoundTrip(t *testing.T) {
	for _, c := range []struct {
		core  int
		line  addr.Line
		write bool
	}{{0, 0, false}, {7, 1<<40 + 12345, true}, {3, 99, false}} {
		core, line, write := unpackOp(packOp(c.core, c.line, c.write))
		if core != c.core || line != c.line || write != c.write {
			t.Errorf("%+v round-trips to %d %d %v", c, core, line, write)
		}
	}
}
