package obs

import (
	"sync"
	"testing"
)

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "help", L("k", "v"))
	b := r.Counter("x_total", "help", L("k", "v"))
	if a != b {
		t.Fatalf("same name+labels must return the same instrument")
	}
	c := r.Counter("x_total", "help", L("k", "w"))
	if a == c {
		t.Fatalf("different labels must return a distinct series")
	}
	// Label order must not matter.
	d := r.Gauge("g", "help", L("a", "1"), L("b", "2"))
	e := r.Gauge("g", "help", L("b", "2"), L("a", "1"))
	if d != e {
		t.Fatalf("label order must not distinguish series")
	}
}

func TestRegistryKindConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "help")
	defer func() {
		if recover() == nil {
			t.Fatalf("registering x_total as a gauge should panic")
		}
	}()
	r.Gauge("x_total", "help")
}

func TestRegistryNilSafe(t *testing.T) {
	var r *Registry
	// Nil registry yields nil instruments; nil instruments no-op.
	c := r.Counter("x_total", "help")
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Fatalf("nil counter must read 0")
	}
	g := r.Gauge("g", "help")
	g.Set(3)
	g.Add(1)
	g.SetMax(9)
	if g.Value() != 0 {
		t.Fatalf("nil gauge must read 0")
	}
	f := r.FloatCounter("f_total", "help")
	f.Add(1.5)
	if f.Value() != 0 {
		t.Fatalf("nil float counter must read 0")
	}
	h := r.Histogram("h", "help", LinearBounds(0, 1, 4))
	h.Observe(2)
	if h.Count() != 0 {
		t.Fatalf("nil histogram must be empty")
	}
	var tr *Tracer
	tr.Emit(TraceEvent{})
	if tr.Enabled() || tr.Len() != 0 {
		t.Fatalf("nil tracer must be inert")
	}
	var p *Progress
	p.Step(1)
	p.SetPhase("x")
	if s := p.Snapshot(); s.Done != 0 {
		t.Fatalf("nil progress must be empty")
	}
}

// TestRegistryConcurrent hammers one shared series from many goroutines;
// run under -race this exercises the lock-free hot path.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	const goroutines, iters = 8, 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				// Resolve through the registry each time: GetOrCreate must
				// hand back the same atomic under contention.
				r.Counter("c_total", "help", L("k", "v")).Inc()
				r.FloatCounter("f_total", "help").Add(0.5)
				r.Gauge("g", "help").SetMax(int64(i))
				r.Histogram("h", "help", LinearBounds(0, 1, 8)).Observe(float64(i % 10))
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("c_total", "help", L("k", "v")).Value(); got != goroutines*iters {
		t.Fatalf("counter = %d, want %d", got, goroutines*iters)
	}
	if got := r.FloatCounter("f_total", "help").Value(); got != goroutines*iters*0.5 {
		t.Fatalf("float counter = %v, want %v", got, goroutines*iters*0.5)
	}
	if got := r.Gauge("g", "help").Value(); got != iters-1 {
		t.Fatalf("gauge max = %d, want %d", got, iters-1)
	}
	if got := r.Histogram("h", "help", LinearBounds(0, 1, 8)).Count(); got != goroutines*iters {
		t.Fatalf("histogram count = %d, want %d", got, goroutines*iters)
	}
}

func TestRegistryValueLookup(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "help", L("k", "v")).Add(7)
	if got := r.Value("a_total", L("k", "v")); got != 7 {
		t.Fatalf("Value = %v, want 7", got)
	}
	if got := r.Value("a_total", L("k", "missing")); got != 0 {
		t.Fatalf("missing series Value = %v, want 0", got)
	}
	h := r.Histogram("h", "help", LinearBounds(0, 1, 4), L("d", "r"))
	h.Observe(2)
	if got := r.HistogramSeries("h", L("d", "r")); got != h {
		t.Fatalf("HistogramSeries must return the registered instrument")
	}
	if got := r.HistogramSeries("h", L("d", "w")); got != nil {
		t.Fatalf("missing histogram series must be nil")
	}
}
