package stats

import (
	"fmt"
	"math"
	"testing"
)

func TestHistogramBasics(t *testing.T) {
	var h Histogram
	for _, v := range []int{0, 0, 1, 3, 17, -2} {
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
	// Mean uses true values including overflow: (0+0+1+3+17+0)/6.
	if got := h.Mean(); math.Abs(got-21.0/6) > 1e-12 {
		t.Errorf("Mean = %g", got)
	}
	if got, want := h.String(), "0:50.0% 1:16.7% 2:0.0% 3:16.7% 4:0.0% 5:0.0% 6:0.0% 7:0.0% …≥17:16.7%"; got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
	if got := fmt.Sprintf("%v", &h); got != h.String() {
		t.Errorf("%%v of a pointer = %q, want String's %q", got, h.String())
	}
}

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.Total() != 0 || !h.Equal(Histogram{}) ||
		h.Fraction(0) != 0 || h.Mean() != 0 || h.OverflowFraction() != 0 || h.TailFraction(0) != 0 {
		t.Error("empty histogram statistics must be zero")
	}
}

func TestHistogramMerge(t *testing.T) {
	var a, b Histogram
	a.Add(1)
	b.Add(1)
	b.Add(20)
	a.Merge(b)
	if a.Total() != 3 || a.Count(1) != 2 || a.Overflow() != 1 || math.Abs(a.Mean()-22.0/3) > 1e-12 {
		t.Error("merge result wrong")
	}
	// A copy is independent of its source.
	c := a
	c.Add(2)
	if a.Total() != 3 || a.Equal(c) {
		t.Error("adding to a copy changed the original")
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
