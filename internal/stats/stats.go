// Package stats provides the small statistical containers the evaluation
// harness needs: integer histograms with overflow buckets (for idle-gap
// distributions), running summaries, and aggregate helpers.
package stats

import (
	"fmt"
	"math"
	"strings"

	"smores/internal/floats"
)

// Histogram counts integer samples in [0, Buckets) plus an overflow bucket.
type Histogram struct {
	counts   []int64
	overflow int64
	total    int64
	sum      float64
}

// NewHistogram creates a histogram with the given number of exact buckets.
func NewHistogram(buckets int) *Histogram {
	if buckets < 1 {
		buckets = 1
	}
	return &Histogram{counts: make([]int64, buckets)}
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
func (h *Histogram) Total() int64 { return h.total }

// Buckets returns the number of exact buckets (excluding overflow).
func (h *Histogram) Buckets() int { return len(h.counts) }

// Equal reports whether two histograms have identical bucket layout and
// contents (counts, overflow, total, and running sum).
func (h *Histogram) Equal(o *Histogram) bool {
	if len(h.counts) != len(o.counts) || h.overflow != o.overflow ||
		h.total != o.total || !floats.Eq(h.sum, o.sum) {
		return false
	}
	for i, c := range h.counts {
		if c != o.counts[i] {
			return false
		}
	}
	return true
}

// Count returns the samples recorded exactly at v.
func (h *Histogram) Count(v int) int64 {
	if v < 0 || v >= len(h.counts) {
		return 0
	}
	return h.counts[v]
}

// Overflow returns the samples at or beyond the bucket range.
func (h *Histogram) Overflow() int64 { return h.overflow }

// Fraction returns the fraction of samples exactly at v.
func (h *Histogram) Fraction(v int) float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.Count(v)) / float64(h.total)
}

// OverflowFraction returns the fraction of samples beyond the bucket range.
func (h *Histogram) OverflowFraction() float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.overflow) / float64(h.total)
}

// TailFraction returns the fraction of samples at or above v (including
// overflow).
func (h *Histogram) TailFraction(v int) float64 {
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
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return h.sum / float64(h.total)
}

// Clone returns an independent deep copy of the histogram. Accessors
// that expose a histogram beyond the owning module's lifetime should
// return a clone so later mutation cannot alias into the snapshot.
func (h *Histogram) Clone() *Histogram {
	return &Histogram{
		counts:   append([]int64(nil), h.counts...),
		overflow: h.overflow,
		total:    h.total,
		sum:      h.sum,
	}
}

// Merge adds another histogram's samples into h. Histograms must have the
// same bucket count.
func (h *Histogram) Merge(o *Histogram) error {
	if len(h.counts) != len(o.counts) {
		return fmt.Errorf("stats: merging histograms of %d and %d buckets", len(h.counts), len(o.counts))
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.overflow += o.overflow
	h.total += o.total
	h.sum += o.sum
	return nil
}

// String renders the first buckets as percentages, for logs.
func (h *Histogram) String() string {
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

// Summary accumulates count/mean/min/max of float samples.
type Summary struct {
	n        int64
	sum      float64
	min, max float64
}

// Add records one sample.
func (s *Summary) Add(v float64) {
	if s.n == 0 || v < s.min {
		s.min = v
	}
	if s.n == 0 || v > s.max {
		s.max = v
	}
	s.n++
	s.sum += v
}

// N returns the sample count.
func (s *Summary) N() int64 { return s.n }

// Mean returns the sample mean (0 when empty).
func (s *Summary) Mean() float64 {
	if s.n == 0 {
		return 0
	}
	return s.sum / float64(s.n)
}

// Min returns the smallest sample (0 when empty).
func (s *Summary) Min() float64 { return s.min }

// Max returns the largest sample (0 when empty).
func (s *Summary) Max() float64 { return s.max }

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
