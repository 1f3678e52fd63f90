// Package stats provides the small statistics utilities the simulator's
// reporting layers use: streaming moments, quantile-capable histograms with
// power-of-two buckets, and ratio formatting helpers.
package stats

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"strings"
)

// Moments accumulates count/mean/variance in a single pass (Welford).
type Moments struct {
	n    uint64
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add incorporates one observation.
func (m *Moments) Add(x float64) {
	m.n++
	if m.n == 1 {
		m.min, m.max = x, x
	} else {
		if x < m.min {
			m.min = x
		}
		if x > m.max {
			m.max = x
		}
	}
	d := x - m.mean
	m.mean += d / float64(m.n)
	m.m2 += d * (x - m.mean)
}

// N returns the observation count.
func (m *Moments) N() uint64 { return m.n }

// Mean returns the running mean (0 with no observations).
func (m *Moments) Mean() float64 { return m.mean }

// Var returns the population variance.
func (m *Moments) Var() float64 {
	if m.n == 0 {
		return 0
	}
	return m.m2 / float64(m.n)
}

// Std returns the population standard deviation.
func (m *Moments) Std() float64 { return math.Sqrt(m.Var()) }

// Min returns the smallest observation (0 with none).
func (m *Moments) Min() float64 { return m.min }

// Max returns the largest observation (0 with none).
func (m *Moments) Max() float64 { return m.max }

// Histogram counts non-negative integer observations in power-of-two
// buckets: bucket k holds values in [2^(k-1), 2^k) with bucket 0 holding the
// value 0 and bucket 1 holding 1. Bucket 63 is the overflow bucket: it absorbs
// every value >= 2^62, so no observation can index out of range. It supports
// approximate quantiles (exact bucket, upper-bound value).
type Histogram struct {
	buckets [64]uint64
	total   uint64
	sum     uint64
}

// bucketOf returns the bucket index for v, clamped to the overflow bucket.
func bucketOf(v uint64) int {
	b := bits.Len64(v)
	if b > 63 {
		return 63
	}
	return b
}

// Add incorporates one observation.
func (h *Histogram) Add(v uint64) {
	h.buckets[bucketOf(v)]++
	h.total++
	h.sum += v
}

// Merge adds every observation of o, bucket by bucket.
func (h *Histogram) Merge(o *Histogram) {
	for b, c := range o.buckets {
		h.buckets[b] += c
	}
	h.total += o.total
	h.sum += o.sum
}

// AppendState appends the histogram's every counter to b, little-endian:
// equal histograms give equal bytes (state digests).
func (h *Histogram) AppendState(b []byte) []byte {
	for _, c := range h.buckets {
		b = binary.LittleEndian.AppendUint64(b, c)
	}
	b = binary.LittleEndian.AppendUint64(b, h.total)
	return binary.LittleEndian.AppendUint64(b, h.sum)
}

// N returns the observation count.
func (h *Histogram) N() uint64 { return h.total }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() uint64 { return h.sum }

// Counts returns a copy of the 64 bucket counters. Bucket k holds values in
// [2^(k-1), 2^k) (bucket 0: the value 0; bucket 63: overflow).
func (h *Histogram) Counts() [64]uint64 { return h.buckets }

// BucketBounds returns the inclusive [lo, hi] value range of bucket b.
func BucketBounds(b int) (lo, hi uint64) {
	if b <= 0 {
		return 0, 0
	}
	return 1 << uint(b-1), 1<<uint(b) - 1
}

// Mean returns the exact mean of the observations.
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.total)
}

// Quantile returns an upper bound for the q-quantile (0 < q <= 1): the upper
// edge of the bucket containing it.
func (h *Histogram) Quantile(q float64) uint64 {
	if h.total == 0 {
		return 0
	}
	target := uint64(math.Ceil(q * float64(h.total)))
	if target == 0 {
		target = 1
	}
	var seen uint64
	for b, c := range h.buckets {
		seen += c
		if seen >= target {
			if b == 0 {
				return 0
			}
			return 1<<uint(b) - 1
		}
	}
	return 1<<63 - 1
}

// String renders the non-empty buckets as a compact table.
func (h *Histogram) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "n=%d mean=%.1f", h.total, h.Mean())
	for b, c := range h.buckets {
		if c == 0 {
			continue
		}
		lo, hi := uint64(0), uint64(0)
		if b > 0 {
			lo = 1 << uint(b-1)
			hi = 1<<uint(b) - 1
		}
		fmt.Fprintf(&sb, " [%d-%d]:%d", lo, hi, c)
	}
	return sb.String()
}

// Ratio formats a/b as a percentage string, tolerating b == 0.
func Ratio(a, b uint64) string {
	if b == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.2f%%", 100*float64(a)/float64(b))
}
