// Package stats provides the small statistical containers the evaluation
// harness needs: a fixed-size integer histogram with an overflow bucket
// (for idle-gap distributions) and aggregate helpers.
package stats

import (
	"fmt"
	"math"
	"strings"

	"smores/internal/floats"
)

// Buckets is a Histogram's number of exact buckets: Fig. 5 reports idle
// gaps of 0 to 16 clocks exactly and longer ones as ">16", the overflow
// bucket.
const Buckets = 17

// Histogram counts integer samples in [0, Buckets) plus an overflow
// bucket. It is a plain value: the zero value is empty, and assigning a
// Histogram copies it.
type Histogram struct {
	counts   [Buckets]int64
	overflow int64
	total    int64
	sum      float64
}

// Add records a sample (negative samples clamp to bucket 0).
func (h *Histogram) Add(v int) {
	if v < 0 {
		v = 0
	}
	h.total++
	h.sum += float64(v)
	if v >= len(h.counts) {
		h.overflow++
		return
	}
	h.counts[v]++
}

// Total returns the number of recorded samples.
func (h Histogram) Total() int64 { return h.total }

// Equal reports whether two histograms have identical contents (counts,
// overflow, total, and running sum).
func (h Histogram) Equal(o Histogram) bool {
	return h.counts == o.counts && h.overflow == o.overflow &&
		h.total == o.total && floats.Eq(h.sum, o.sum)
}

// Count returns the samples recorded exactly at v.
func (h Histogram) Count(v int) int64 {
	if v < 0 || v >= len(h.counts) {
		return 0
	}
	return h.counts[v]
}

// Overflow returns the samples at or beyond the bucket range.
func (h Histogram) Overflow() int64 { return h.overflow }

// Fraction returns the fraction of samples exactly at v.
func (h Histogram) Fraction(v int) float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.Count(v)) / float64(h.total)
}

// OverflowFraction returns the fraction of samples beyond the bucket range.
func (h Histogram) OverflowFraction() float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.overflow) / float64(h.total)
}

// TailFraction returns the fraction of samples at or above v (including
// overflow).
func (h Histogram) TailFraction(v int) float64 {
	if h.total == 0 {
		return 0
	}
	var n int64
	for i := v; i < len(h.counts); i++ {
		if i >= 0 {
			n += h.counts[i]
		}
	}
	n += h.overflow
	return float64(n) / float64(h.total)
}

// Mean returns the mean of all samples (overflow samples contribute their
// true values, which are retained in the running sum).
func (h Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return h.sum / float64(h.total)
}

// Merge adds another histogram's samples into h.
func (h *Histogram) Merge(o Histogram) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.overflow += o.overflow
	h.total += o.total
	h.sum += o.sum
}

// String renders the first buckets as percentages, for logs.
func (h Histogram) String() string {
	var b strings.Builder
	for i := range h.counts {
		if i >= 8 {
			b.WriteString("…")
			break
		}
		fmt.Fprintf(&b, "%d:%.1f%% ", i, h.Fraction(i)*100)
	}
	fmt.Fprintf(&b, "≥%d:%.1f%%", len(h.counts), h.OverflowFraction()*100)
	return b.String()
}

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Geomean returns the geometric mean of positive xs; it returns 0 if any
// sample is non-positive or the input is empty.
func Geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var logSum float64
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		logSum += math.Log(x)
	}
	return math.Exp(logSum / float64(len(xs)))
}
