package rng

import (
	"math"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed produced different streams")
		}
	}
	c := New(43)
	same := 0
	a = New(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different seeds collide %d/100 times", same)
	}
}

// Seed on a used generator restarts New's stream for the new seed.
func TestSeedMatchesNew(t *testing.T) {
	r := New(42)
	for i := 0; i < 10; i++ {
		r.Uint64()
	}
	r.Seed(43)
	want := New(43)
	for i := 0; i < 100; i++ {
		if r.Uint64() != want.Uint64() {
			t.Fatalf("draw %d: a reseeded generator left New's stream", i)
		}
	}
}

func TestZeroSeedIsValid(t *testing.T) {
	r := New(0)
	seen := make(map[uint64]bool)
	for i := 0; i < 50; i++ {
		seen[r.Uint64()] = true
	}
	if len(seen) < 49 {
		t.Error("zero seed produced a degenerate stream")
	}
}

func TestForkIndependence(t *testing.T) {
	r := New(7)
	f := r.Fork()
	if r.Uint64() == f.Uint64() {
		t.Error("fork mirrors parent")
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(1)
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %g", v)
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.01 {
		t.Errorf("Float64 mean = %g, want ≈0.5", mean)
	}
}

func TestIntnUniformity(t *testing.T) {
	r := New(2)
	counts := make([]int, 10)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[r.Intn(10)]++
	}
	for d, c := range counts {
		if math.Abs(float64(c)-n/10)/float64(n/10) > 0.05 {
			t.Errorf("digit %d count %d deviates >5%%", d, c)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) must panic")
		}
	}()
	r.Intn(0)
}

func TestInt63NonNegative(t *testing.T) {
	r := New(3)
	for i := 0; i < 1000; i++ {
		if r.Int63() < 0 {
			t.Fatal("Int63 returned negative")
		}
	}
}

func TestBool(t *testing.T) {
	r := New(4)
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	if p := float64(hits) / n; math.Abs(p-0.3) > 0.01 {
		t.Errorf("Bool(0.3) rate = %g", p)
	}
	if r.Bool(0) {
		t.Error("Bool(0) fired") // probability 0 must never fire
	}
}

func TestGeometricMean(t *testing.T) {
	r := New(5)
	for _, mean := range []float64{1, 2, 4.5, 16} {
		var sum float64
		const n = 200000
		for i := 0; i < n; i++ {
			v := r.Geometric(mean)
			if v < 1 {
				t.Fatalf("geometric sample %d < 1", v)
			}
			sum += float64(v)
		}
		got := sum / n
		want := mean
		if mean <= 1 {
			want = 1
		}
		if math.Abs(got-want)/want > 0.03 {
			t.Errorf("Geometric(%g) mean = %g", mean, got)
		}
	}
}

func TestExpMean(t *testing.T) {
	r := New(6)
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		v := r.Exp(5)
		if v < 0 {
			t.Fatal("negative exponential sample")
		}
		sum += v
	}
	if got := sum / n; math.Abs(got-5)/5 > 0.03 {
		t.Errorf("Exp(5) mean = %g", got)
	}
}

func TestFill(t *testing.T) {
	r := New(8)
	for _, n := range []int{0, 1, 7, 8, 9, 64, 100} {
		b := make([]byte, n)
		r.Fill(b)
		if n >= 16 {
			allZero := true
			for _, x := range b {
				if x != 0 {
					allZero = false
					break
				}
			}
			if allZero {
				t.Errorf("Fill(%d) produced all zeros", n)
			}
		}
	}
	// Byte-level uniformity check.
	big := make([]byte, 1<<16)
	r.Fill(big)
	var ones int
	for _, x := range big {
		for b := x; b != 0; b &= b - 1 {
			ones++
		}
	}
	if frac := float64(ones) / float64(len(big)*8); math.Abs(frac-0.5) > 0.01 {
		t.Errorf("bit density = %g", frac)
	}
}

// unit53 is 2^53: Bool's draw k = Uint64()>>11 lies in [0, 2^53).
const unit53 = 1 << 53

// boolFromDraw is Bool(p)'s predicate on a 53-bit draw k.
func boolFromDraw(k uint64, p float64) bool { return float64(k)/unit53 < p }

// Below(BoolThreshold(p)) must decide every 53-bit draw as Bool(p)
// does. The edges sit at the threshold, so each p is checked at the
// draws just below, at and just above it (those inside the draw range).
func TestBoolThreshold(t *testing.T) {
	cases := []struct {
		p    float64
		want uint64
	}{
		{0, 0},
		{5e-324, 1},
		{1e-4, uint64(math.Ceil(1e-4 * unit53))},
		{0.5, unit53 / 2},
		{math.Nextafter(1, 0), unit53 - 1},
		{1, unit53},
		{2, unit53},
		{math.Copysign(0, -1), 0},
		{-1, 0},
		{math.NaN(), 0},
		{math.Inf(1), unit53},
	}
	for _, c := range cases {
		th := BoolThreshold(c.p)
		if th != c.want {
			t.Errorf("BoolThreshold(%g) = %d, want %d", c.p, th, c.want)
		}
		for _, k := range []uint64{th - 1, th, th + 1} {
			if k >= unit53 { // also skips th-1 wrapping below zero
				continue
			}
			if got, want := k < th, boolFromDraw(k, c.p); got != want {
				t.Errorf("p=%g k=%d: integer draw says %v, float draw %v", c.p, k, got, want)
			}
		}
	}
}

// Two clones of one generator draw Bool(p) and Below(BoolThreshold(p))
// identically, draw for draw, and stay in step.
func TestBelowMatchesBool(t *testing.T) {
	for _, p := range []float64{0, 1e-4, 0.25, 0.5, 0.999, 1} {
		a := New(99)
		b := *a
		th := BoolThreshold(p)
		for i := 0; i < 20000; i++ {
			if x, y := a.Bool(p), b.Below(th); x != y {
				t.Fatalf("p=%g draw %d: Bool %v, Below %v", p, i, x, y)
			}
		}
		if a.Uint64() != b.Uint64() {
			t.Fatalf("p=%g: the clones fell out of step", p)
		}
	}
}

// FuzzBoolThreshold holds the integer predicate to the float one for
// arbitrary p (any float64 bit pattern) and 53-bit draws.
func FuzzBoolThreshold(f *testing.F) {
	f.Add(math.Float64bits(1e-4), uint64(900719925474))
	f.Add(math.Float64bits(0.5), uint64(unit53/2))
	f.Add(math.Float64bits(5e-324), uint64(0))
	f.Add(math.Float64bits(math.Nextafter(1, 0)), uint64(unit53-1))
	f.Fuzz(func(t *testing.T, pBits, k uint64) {
		p := math.Float64frombits(pBits)
		k &= unit53 - 1
		th := BoolThreshold(p)
		if th > unit53 {
			t.Fatalf("BoolThreshold(%g) = %d, above 2^53", p, th)
		}
		if got, want := k < th, boolFromDraw(k, p); got != want {
			t.Fatalf("p=%g k=%d: integer draw says %v, float draw %v", p, k, got, want)
		}
	})
}

// belowLoop is FirstBelow written with Below: the index of the first of
// up to n draws below t, or n when none is.
func belowLoop(r *RNG, t uint64, n int) int {
	for i := 0; i < n; i++ {
		if r.Below(t) {
			return i
		}
	}
	return n
}

// FirstBelow returns what a Below loop returns and leaves the generator
// where the loop leaves it, for thresholds that never, rarely, half the
// time and always draw below, and for empty, single, column-sized and
// long runs, call after call from one stream.
func TestFirstBelowMatchesBelow(t *testing.T) {
	for _, th := range []uint64{0, 1, BoolThreshold(1e-4), 1 << 52, unit53} {
		for _, n := range []int{0, 1, 9, 4096} {
			a := New(th ^ uint64(n))
			b := *a
			for call := 0; call < 40; call++ {
				got, want := a.FirstBelow(th, n), belowLoop(&b, th, n)
				if got != want {
					t.Fatalf("t=%d n=%d call %d: FirstBelow %d, Below loop %d", th, n, call, got, want)
				}
				if *a != b {
					t.Fatalf("t=%d n=%d call %d: generator states differ", th, n, call)
				}
			}
		}
	}
	// At the edge: a draw equal to t is not below it, and below t+1.
	r := New(5)
	for i := 0; i < 100; i++ {
		peek := *r
		k := peek.Uint64() >> 11
		for _, th := range []uint64{k, k + 1} {
			a, b := *r, *r
			if got, want := a.FirstBelow(th, 9), belowLoop(&b, th, 9); got != want || a != b {
				t.Fatalf("draw %d, t=%d: FirstBelow %d, Below loop %d", k, th, got, want)
			}
		}
		r.Uint64()
	}
}

// FuzzFirstBelow holds FirstBelow to the Below loop, result and final
// state, for any seed, any threshold and run lengths up to 4095.
func FuzzFirstBelow(f *testing.F) {
	f.Add(uint64(1), BoolThreshold(1e-4), uint16(4095))
	f.Add(uint64(7), uint64(1<<52), uint16(9))
	f.Add(uint64(0), uint64(0), uint16(0))
	f.Add(uint64(3), uint64(unit53), uint16(1))
	f.Fuzz(func(t *testing.T, seed, th uint64, n uint16) {
		a := New(seed)
		b := *a
		m := int(n & 0xfff)
		if got, want := a.FirstBelow(th, m), belowLoop(&b, th, m); got != want {
			t.Fatalf("seed %d t=%d n=%d: FirstBelow %d, Below loop %d", seed, th, m, got, want)
		}
		if *a != b {
			t.Fatalf("seed %d t=%d n=%d: generator states differ", seed, th, m)
		}
	})
}
