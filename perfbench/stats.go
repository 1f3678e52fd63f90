package main

import (
	"fmt"
	"math"
	"runtime/debug"
	"sort"
	"time"
)

// summary is a timing distribution reduced to what the benchmark reports:
// the median, the 90th percentile, and how many samples back each.
type summary struct {
	N   int
	P50 float64
	P90 float64
	// Beyond90 counts samples strictly above P90 — the tail that the p90
	// estimate rests on. The p90 is only trustworthy when this is >= 10.
	Beyond90 int
}

// quantile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation between closest ranks (the "type 7" rule of R and NumPy).
// xs need not be sorted and is not modified. It returns NaN for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return sortedQuantile(s, q)
}

// sortedQuantile is quantile over an already sorted slice.
func sortedQuantile(s []float64, q float64) float64 {
	h := q * float64(len(s)-1)
	lo := int(math.Floor(h))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (h-float64(lo))*(s[lo+1]-s[lo])
}

// median returns the 0.5-quantile of xs.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// summarize reduces samples to a summary.
func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{P50: math.NaN(), P90: math.NaN()}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	sum := summary{N: len(s), P50: sortedQuantile(s, 0.5), P90: sortedQuantile(s, 0.9)}
	for _, v := range s {
		if v > sum.P90 {
			sum.Beyond90++
		}
	}
	return sum
}

// groupedQuantiles reduces samples drawn from fixed groups, such as the six
// defenses of a sweep timed once per sweep each, to the geometric mean over
// groups of each group's own median and 90th percentile. Pooling the groups
// instead would make the median a rank inside a mixture of fixed make-up:
// with disjoint groups it lands on the boundary between two of them and is
// set by their extreme samples. Empty groups are skipped.
func groupedQuantiles(groups [][]float64) (p50, p90 float64) {
	var l50, l90 float64
	n := 0
	for _, g := range groups {
		if len(g) == 0 {
			continue
		}
		s := summarize(g)
		l50 += math.Log(s.P50)
		l90 += math.Log(s.P90)
		n++
	}
	if n == 0 {
		return math.NaN(), math.NaN()
	}
	return math.Exp(l50 / float64(n)), math.Exp(l90 / float64(n))
}

// String renders the summary with its sample counts.
func (s summary) String() string {
	return fmt.Sprintf("p50 %.4g p90 %.4g (n=%d, %d beyond p90)", s.P50, s.P90, s.N, s.Beyond90)
}

// mean returns the arithmetic mean of xs (NaN for no samples).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	t := 0.0
	for _, v := range xs {
		t += v
	}
	return t / float64(len(xs))
}

// pauseGC stops garbage collection until the returned func is called. The
// repeated set-ups run with it paused, each after a full collection,
// so no collection cycle lands inside a timed set-up; with the
// collector running, set-up times split between two modes from run to run
// depending on where its cycles fell. Collecting between set-ups instead of
// letting them pile up keeps the run's memory at one set-up's worth.
func pauseGC() (resume func()) {
	old := debug.SetGCPercent(-1)
	return func() { debug.SetGCPercent(old) }
}

// medianDuration returns the median of ds.
func medianDuration(ds []time.Duration) time.Duration {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return time.Duration(median(xs))
}

// msOf converts a duration to milliseconds.
func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ms converts durations to milliseconds.
func ms(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = msOf(d)
	}
	return out
}

// selfTime is a span's duration minus the time its child spans cover. The
// children must have run inside the span and one after another; a negative
// remainder means they did not, and is reported as an error rather than
// clamped, because it would silently credit the parent layer with time it
// never spent.
func selfTime(total time.Duration, children ...time.Duration) (time.Duration, error) {
	self := total
	for _, c := range children {
		self -= c
	}
	if self < 0 {
		return 0, fmt.Errorf("children cover %v of a %v span", total-self, total)
	}
	return self, nil
}

// outcome classifies one submitted job from the client's side.
type outcome int

const (
	outcomeOK         outcome = iota
	outcomeRefused429         // queue full: 429 Too Many Requests
	outcomeRefused503         // draining: 503 Service Unavailable
	outcomeFailed             // any other error, or a failed/canceled job
	outcomeMismatch           // done, but the result differs from a local run
)

// tally counts job outcomes against jobs attempted.
type tally struct {
	byOutcome [outcomeMismatch + 1]int
}

// add records one attempted job.
func (t *tally) add(o outcome) { t.byOutcome[o]++ }

// attempted is the number of jobs submitted.
func (t *tally) attempted() int {
	n := 0
	for _, c := range t.byOutcome {
		n += c
	}
	return n
}

// failed counts every attempted job that did not produce a correct result:
// refusals, failures and mismatches alike.
func (t *tally) failed() int { return t.attempted() - t.byOutcome[outcomeOK] }

// failRatio is failed over attempted (0 when nothing was attempted).
func (t *tally) failRatio() float64 {
	if t.attempted() == 0 {
		return 0
	}
	return float64(t.failed()) / float64(t.attempted())
}
