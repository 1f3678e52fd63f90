package stats

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestMomentsBasics(t *testing.T) {
	var m Moments
	if m.N() != 0 || m.Mean() != 0 || m.Var() != 0 {
		t.Fatal("zero Moments not zero")
	}
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		m.Add(x)
	}
	if m.N() != 8 {
		t.Fatalf("N = %d", m.N())
	}
	if math.Abs(m.Mean()-5) > 1e-9 {
		t.Fatalf("Mean = %v", m.Mean())
	}
	if math.Abs(m.Std()-2) > 1e-9 { // classic example: σ = 2
		t.Fatalf("Std = %v", m.Std())
	}
	if m.Min() != 2 || m.Max() != 9 {
		t.Fatalf("min/max = %v/%v", m.Min(), m.Max())
	}
}

func TestMomentsMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var m Moments
	var xs []float64
	for i := 0; i < 1000; i++ {
		x := rng.NormFloat64()*3 + 10
		xs = append(xs, x)
		m.Add(x)
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	mean := sum / float64(len(xs))
	var v float64
	for _, x := range xs {
		v += (x - mean) * (x - mean)
	}
	v /= float64(len(xs))
	if math.Abs(m.Mean()-mean) > 1e-9 || math.Abs(m.Var()-v) > 1e-6 {
		t.Fatalf("streaming (%v,%v) vs naive (%v,%v)", m.Mean(), m.Var(), mean, v)
	}
}

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	for _, v := range []uint64{0, 1, 2, 3, 4, 7, 8, 1024} {
		h.Add(v)
	}
	if h.N() != 8 {
		t.Fatalf("N = %d", h.N())
	}
	want := (0.0 + 1 + 2 + 3 + 4 + 7 + 8 + 1024) / 8
	if math.Abs(h.Mean()-want) > 1e-9 {
		t.Fatalf("Mean = %v, want %v", h.Mean(), want)
	}
	s := h.String()
	if !strings.Contains(s, "n=8") {
		t.Fatalf("String = %q", s)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	for v := uint64(1); v <= 1000; v++ {
		h.Add(v)
	}
	// Quantile returns a bucket upper bound: it must be >= the exact
	// quantile and within 2x of it (power-of-two buckets).
	for _, q := range []float64{0.5, 0.9, 0.99, 1.0} {
		exact := uint64(q * 1000)
		got := h.Quantile(q)
		if got < exact {
			t.Errorf("Quantile(%v) = %d below exact %d", q, got, exact)
		}
		if got > 2*exact {
			t.Errorf("Quantile(%v) = %d more than 2x exact %d", q, got, exact)
		}
	}
	if (&Histogram{}).Quantile(0.5) != 0 {
		t.Error("empty histogram quantile not 0")
	}
}

func TestHistogramQuantileMonotone(t *testing.T) {
	f := func(vals []uint16) bool {
		var h Histogram
		for _, v := range vals {
			h.Add(uint64(v))
		}
		return h.Quantile(0.25) <= h.Quantile(0.5) &&
			h.Quantile(0.5) <= h.Quantile(0.9) &&
			h.Quantile(0.9) <= h.Quantile(1.0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRatio(t *testing.T) {
	if Ratio(1, 0) != "n/a" {
		t.Error("Ratio with zero denominator")
	}
	if Ratio(1, 4) != "25.00%" {
		t.Errorf("Ratio(1,4) = %q", Ratio(1, 4))
	}
}

func TestHistogramMerge(t *testing.T) {
	var a, b, want Histogram
	for _, v := range []uint64{0, 1, 5, 1 << 40} {
		a.Add(v)
		want.Add(v)
	}
	for _, v := range []uint64{5, 9, 1<<63 + 3} {
		b.Add(v)
		want.Add(v)
	}
	a.Merge(&b)
	if a != want {
		t.Fatalf("merge = %+v, want %+v", a, want)
	}
}
