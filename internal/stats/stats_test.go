package stats

import (
	"math"
	"strings"
	"testing"
)

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram(4)
	for _, v := range []int{0, 0, 1, 3, 7, -2} {
		h.Add(v)
	}
	if h.Total() != 6 {
		t.Errorf("Total = %d", h.Total())
	}
	if h.Count(0) != 3 { // -2 clamps to 0
		t.Errorf("Count(0) = %d", h.Count(0))
	}
	if h.Count(1) != 1 || h.Count(2) != 0 || h.Count(3) != 1 {
		t.Error("bucket counts wrong")
	}
	if h.Overflow() != 1 {
		t.Errorf("Overflow = %d", h.Overflow())
	}
	if h.Count(-1) != 0 || h.Count(99) != 0 {
		t.Error("out-of-range Count must be 0")
	}
	if got := h.Fraction(0); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("Fraction(0) = %g", got)
	}
	if got := h.OverflowFraction(); math.Abs(got-1.0/6) > 1e-12 {
		t.Errorf("OverflowFraction = %g", got)
	}
	if got := h.TailFraction(1); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("TailFraction(1) = %g", got)
	}
	// Mean uses true values including overflow: (0+0+1+3+7+0)/6.
	if got := h.Mean(); math.Abs(got-11.0/6) > 1e-12 {
		t.Errorf("Mean = %g", got)
	}
	if !strings.Contains(h.String(), "%") {
		t.Error("String should render percentages")
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram(0) // clamps to one bucket
	if h.Fraction(0) != 0 || h.Mean() != 0 || h.OverflowFraction() != 0 || h.TailFraction(0) != 0 {
		t.Error("empty histogram statistics must be zero")
	}
}

func TestHistogramMerge(t *testing.T) {
	a, b := NewHistogram(4), NewHistogram(4)
	a.Add(1)
	b.Add(1)
	b.Add(9)
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if a.Total() != 3 || a.Count(1) != 2 || a.Overflow() != 1 {
		t.Error("merge result wrong")
	}
	if err := a.Merge(NewHistogram(5)); err == nil {
		t.Error("mismatched merge must error")
	}
}

func TestSummary(t *testing.T) {
	var s Summary
	if s.Mean() != 0 || s.N() != 0 {
		t.Error("empty summary")
	}
	for _, v := range []float64{2, -1, 5} {
		s.Add(v)
	}
	if s.N() != 3 || s.Min() != -1 || s.Max() != 5 {
		t.Errorf("summary: n=%d min=%g max=%g", s.N(), s.Min(), s.Max())
	}
	if math.Abs(s.Mean()-2) > 1e-12 {
		t.Errorf("Mean = %g", s.Mean())
	}
}

func TestMeanAndGeomean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("Mean(nil)")
	}
	if got := Mean([]float64{1, 2, 3}); math.Abs(got-2) > 1e-12 {
		t.Errorf("Mean = %g", got)
	}
	if Geomean(nil) != 0 {
		t.Error("Geomean(nil)")
	}
	if got := Geomean([]float64{1, 100}); math.Abs(got-10) > 1e-9 {
		t.Errorf("Geomean = %g", got)
	}
	if Geomean([]float64{1, 0}) != 0 || Geomean([]float64{-1}) != 0 {
		t.Error("non-positive inputs must yield 0")
	}
}
