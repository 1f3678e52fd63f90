// Package metrics is the simulator's observability substrate: a registry of
// named counters, gauges, power-of-two histograms (reusing internal/stats)
// and bounded time series, with snapshot/delta export to JSON and text.
//
// The design goals, in order:
//
//  1. Zero cost when disabled. Every handle type is nil-receiver-safe, and a
//     nil *Registry hands out nil handles, so instrumented code records
//     unconditionally — `c.Inc()` on a nil counter is a single branch — and
//     the hot paths never allocate or lock.
//  2. Goroutine safety. Counters and gauges are lock-free atomics; histograms
//     and series take a per-instrument mutex; one RWMutex guards the
//     name→handle maps. Any number of engines, experiment workers, and
//     server jobs may publish into one registry while another goroutine
//     snapshots it.
//  3. Zero allocation on the hot path when enabled. Counter/Gauge/Histogram
//     updates touch pre-registered fixed-size state; Series bounds its memory
//     by decimating in place.
//  4. Get-or-create naming. Registering the same name twice returns the same
//     handle, so the totals of many runs naturally aggregate into one
//     instrument.
//
// Concurrency contract: every method on Registry, Counter, Gauge, Histogram
// and Series is safe for concurrent use. Snapshot() may be called at any
// time; it reads each instrument atomically (per instrument — the snapshot
// as a whole is not a single atomic cut across instruments, which is fine
// for monotone counters). GaugeFunc callbacks are evaluated at snapshot time,
// so each must be safe to call from the snapshotting goroutine.
//
// The simulator itself does not record through this package on its hot path:
// the coherence engine counts in plain stats structs and publishes their
// totals into a registry once per run (coherence.Engine.PublishMetrics).
package metrics

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"secdir/internal/stats"
)

// Counter is a monotonically increasing uint64. All methods are safe for
// concurrent use.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one. Safe on a nil counter (no-op).
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n. Safe on a nil counter (no-op).
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-write-wins float64 value. All methods are safe for
// concurrent use (the value is stored as atomic float bits).
type Gauge struct {
	bits atomic.Uint64
}

// Set records the current value. Safe on a nil gauge (no-op).
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Value returns the last set value (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram records uint64 observations in power-of-two buckets. A mutex
// serializes observations and snapshots; the critical section is a few array
// increments, so contention stays low even with many concurrent writers.
type Histogram struct {
	mu sync.Mutex
	h  stats.Histogram
}

// Observe records one observation. Safe on a nil histogram (no-op).
func (h *Histogram) Observe(v uint64) {
	if h != nil {
		h.mu.Lock()
		h.h.Add(v)
		h.mu.Unlock()
	}
}

// Merge adds every observation of src. Safe on a nil histogram (no-op).
func (h *Histogram) Merge(src *stats.Histogram) {
	if h != nil {
		h.mu.Lock()
		h.h.Merge(src)
		h.mu.Unlock()
	}
}

// N returns the observation count (0 on nil).
func (h *Histogram) N() uint64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.h.N()
}

// snapshot exports the histogram state under its lock.
func (h *Histogram) snapshot() HistogramSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	return histSnapshot(&h.h)
}

// Point is one sample of a Series.
type Point struct {
	// X is the sample position (typically a cycle count).
	X float64 `json:"x"`
	// Y is the sampled value.
	Y float64 `json:"y"`
}

// Series is a bounded append-only time series. When the capacity is reached
// the series decimates itself in place — every other retained point is
// dropped and the effective sampling stride doubles — so it covers the whole
// run with bounded memory instead of retaining only a recent window.
//
// A mutex makes Append/Points safe for concurrent use; note that samples
// appended by concurrent runs interleave, so a shared series' X values are
// only monotone within one producer.
type Series struct {
	mu     sync.Mutex
	pts    []Point
	max    int
	stride int // keep every stride-th appended point
	skip   int // appends remaining until the next kept point
}

// defaultSeriesCap bounds a Series that was registered with no explicit
// capacity.
const defaultSeriesCap = 1024

// Append records one sample. Safe on a nil series (no-op).
func (s *Series) Append(x, y float64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.skip > 0 {
		s.skip--
		return
	}
	s.skip = s.stride - 1
	if len(s.pts) == s.max {
		// Decimate: keep points 0, 2, 4, ... and double the stride.
		for i := 0; 2*i < len(s.pts); i++ {
			s.pts[i] = s.pts[2*i]
		}
		s.pts = s.pts[:(len(s.pts)+1)/2]
		s.stride *= 2
		s.skip = s.stride - 1
	}
	s.pts = append(s.pts, Point{X: x, Y: y})
}

// Points returns the retained samples, oldest first (nil on a nil series).
func (s *Series) Points() []Point {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Point, len(s.pts))
	copy(out, s.pts)
	return out
}

// Len returns the number of retained samples (0 on nil).
func (s *Series) Len() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.pts)
}

// Registry holds named metrics. The zero value is not usable; call New. A nil
// *Registry is a valid "metrics disabled" registry: every accessor returns a
// nil handle and Snapshot returns an empty snapshot. A non-nil Registry is
// safe for concurrent use by any number of goroutines.
//
// One RWMutex guards the name→handle maps. Callers look a name up once per
// run, job or shard and then record through the handle, which takes no
// registry lock.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	gaugeFns map[string]func() float64
	hists    map[string]*Histogram
	series   map[string]*Series
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		gaugeFns: map[string]func() float64{},
		hists:    map[string]*Histogram{},
		series:   map[string]*Series{},
	}
}

// getOrCreate returns m[name], creating it with mk on first use.
func getOrCreate[V any](r *Registry, m map[string]*V, name string, mk func() *V) *V {
	r.mu.RLock()
	v, ok := m[name]
	r.mu.RUnlock()
	if ok {
		return v
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if v, ok = m[name]; !ok {
		v = mk()
		m[name] = v
	}
	return v
}

// Counter returns the named counter, creating it on first use. Returns nil on
// a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	return getOrCreate(r, r.counters, name, func() *Counter { return &Counter{} })
}

// Gauge returns the named gauge, creating it on first use. Returns nil on a
// nil registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	return getOrCreate(r, r.gauges, name, func() *Gauge { return &Gauge{} })
}

// GaugeFunc registers a callback evaluated at snapshot time — the right shape
// for a value that is cheap to read on demand, such as a queue length.
// Re-registering a name replaces the callback. No-op on a nil registry.
//
// The callback itself runs outside the registry's lock, on the goroutine that
// calls Snapshot, so it must be safe to call from there.
func (r *Registry) GaugeFunc(name string, fn func() float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.gaugeFns[name] = fn
	r.mu.Unlock()
}

// Histogram returns the named histogram, creating it on first use. Returns
// nil on a nil registry.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	return getOrCreate(r, r.hists, name, func() *Histogram { return &Histogram{} })
}

// Series returns the named series, creating it with the given retained-point
// capacity on first use (values < 2 fall back to a default). Returns nil on a
// nil registry.
func (r *Registry) Series(name string, capacity int) *Series {
	if r == nil {
		return nil
	}
	if capacity < 2 {
		capacity = defaultSeriesCap
	}
	return getOrCreate(r, r.series, name, func() *Series { return &Series{max: capacity, stride: 1} })
}

// sortedKeys returns the map's keys in lexical order.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
