package gpu

import (
	"testing"

	"smores/internal/core"
	"smores/internal/memctrl"
	"smores/internal/rng"
)

// sliceGen replays a fixed access list.
type sliceGen struct {
	accesses []Access
	i        int
}

func (g *sliceGen) Next() (Access, bool) {
	if g.i >= len(g.accesses) {
		return Access{}, false
	}
	a := g.accesses[g.i]
	g.i++
	return a, true
}

// randGen produces an endless random stream.
type randGen struct {
	r     *rng.RNG
	ws    int
	wfrac float64
	think int
}

func (g *randGen) Next() (Access, bool) {
	return Access{
		Sector: uint64(g.r.Intn(g.ws)),
		Write:  g.r.Bool(g.wfrac),
		Think:  int64(g.r.Intn(g.think + 1)),
	}, true
}

func newController(t *testing.T, policy memctrl.EncodingPolicy, scheme core.Scheme) *memctrl.Controller {
	t.Helper()
	c, err := memctrl.New(memctrl.Config{Policy: policy, Scheme: scheme})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestDriverCompletesFixedWorkload(t *testing.T) {
	ctrl := newController(t, memctrl.BaselineMTA, core.Scheme{})
	var accesses []Access
	for i := 0; i < 200; i++ {
		accesses = append(accesses, Access{Sector: uint64(i * 5), Write: i%4 == 0})
	}
	d, err := NewDriver(DriverConfig{MSHRs: 16}, ctrl, &sliceGen{accesses: accesses})
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Accesses != 200 {
		t.Errorf("accesses = %d", res.Accesses)
	}
	// No LLC: every read goes to DRAM, every write too.
	if res.DRAMReads != 150 || res.DRAMWrites != 50 {
		t.Errorf("DRAM traffic %d/%d, want 150/50", res.DRAMReads, res.DRAMWrites)
	}
	if res.Clocks <= 0 || res.Bandwidth() <= 0 {
		t.Error("no progress recorded")
	}
	st := ctrl.Stats()
	if st.ReadsServed != 150 || st.WritesServed != 50 {
		t.Errorf("controller served %d/%d", st.ReadsServed, st.WritesServed)
	}
}

func TestDriverWithLLCFiltersTraffic(t *testing.T) {
	ctrl := newController(t, memctrl.BaselineMTA, core.Scheme{})
	cfg := DefaultLLCConfig()
	var accesses []Access
	// Touch the same small region repeatedly: nearly everything hits.
	for rep := 0; rep < 10; rep++ {
		for i := 0; i < 300; i++ {
			accesses = append(accesses, Access{Sector: uint64(i)})
		}
	}
	d, err := NewDriver(DriverConfig{MSHRs: 16, LLC: &cfg}, ctrl, &sliceGen{accesses: accesses})
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.DRAMReads != 300 {
		t.Errorf("DRAM reads = %d, want 300 (one per unique sector)", res.DRAMReads)
	}
	if res.LLC.HitRate() < 0.85 {
		t.Errorf("LLC hit rate = %.2f", res.LLC.HitRate())
	}
}

func TestDriverDirtyWritebacksReachDRAM(t *testing.T) {
	ctrl := newController(t, memctrl.BaselineMTA, core.Scheme{})
	cfg := LLCConfig{SizeBytes: 8192, LineBytes: 128, SectorBytes: 32, Ways: 4}
	var accesses []Access
	// Dirty a large streaming region so evictions must write back.
	for i := 0; i < 2000; i++ {
		accesses = append(accesses, Access{Sector: uint64(i), Write: true})
	}
	d, err := NewDriver(DriverConfig{MSHRs: 16, LLC: &cfg}, ctrl, &sliceGen{accesses: accesses})
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.DRAMWrites == 0 {
		t.Fatal("no writebacks reached DRAM")
	}
	if res.DRAMReads != 0 {
		t.Errorf("write-validate misses generated %d DRAM reads", res.DRAMReads)
	}
	if ctrl.Stats().WritesServed != res.DRAMWrites {
		t.Errorf("controller writes %d != driver writes %d", ctrl.Stats().WritesServed, res.DRAMWrites)
	}
}

func TestDriverMSHRBackpressure(t *testing.T) {
	run := func(mshrs int) int64 {
		ctrl := newController(t, memctrl.BaselineMTA, core.Scheme{})
		var accesses []Access
		for i := 0; i < 400; i++ {
			accesses = append(accesses, Access{Sector: uint64(i)})
		}
		d, err := NewDriver(DriverConfig{MSHRs: mshrs}, ctrl, &sliceGen{accesses: accesses})
		if err != nil {
			t.Fatal(err)
		}
		res, err := d.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.Clocks
	}
	tight := run(1)
	wide := run(32)
	if tight <= wide {
		t.Errorf("MSHR=1 (%d clocks) should be slower than MSHR=32 (%d)", tight, wide)
	}
}

func TestDriverMaxAccessesBound(t *testing.T) {
	ctrl := newController(t, memctrl.SMOREs, core.Scheme{Specification: core.StaticCode, Detection: core.Exhaustive})
	g := &randGen{r: rng.New(3), ws: 1 << 16, wfrac: 0.2, think: 4}
	d, err := NewDriver(DriverConfig{MSHRs: 16, MaxAccesses: 500}, ctrl, g)
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Accesses != 500 {
		t.Errorf("accesses = %d, want exactly 500", res.Accesses)
	}
	if ctrl.Stats().DecisionMismatches != 0 || ctrl.Stats().BusConflicts != 0 {
		t.Errorf("invariants violated: %+v", ctrl.Stats())
	}
}

func TestDriverMaxClocksAborts(t *testing.T) {
	ctrl := newController(t, memctrl.BaselineMTA, core.Scheme{})
	g := &randGen{r: rng.New(4), ws: 1 << 20, wfrac: 0, think: 50}
	d, err := NewDriver(DriverConfig{MSHRs: 4, MaxAccesses: 1 << 40, MaxClocks: 2000}, ctrl, g)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Run(); err == nil {
		t.Error("expected clock-bound abort")
	}
}

func TestThinkTimePacesTraffic(t *testing.T) {
	run := func(think int64) int64 {
		ctrl := newController(t, memctrl.BaselineMTA, core.Scheme{})
		var accesses []Access
		for i := 0; i < 100; i++ {
			accesses = append(accesses, Access{Sector: uint64(i), Think: think})
		}
		d, err := NewDriver(DriverConfig{MSHRs: 32}, ctrl, &sliceGen{accesses: accesses})
		if err != nil {
			t.Fatal(err)
		}
		res, err := d.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.Clocks
	}
	if fast, slow := run(0), run(10); slow < fast+800 {
		t.Errorf("think time ignored: %d vs %d clocks", fast, slow)
	}
}

// TestDriverSteadyStateAllocFree pins the zero-allocation steady state of
// the whole driver+controller stack (the companion of the bus package's
// TestExactSteadyStateAllocFree): once the queues, the completion list
// and the writeback buffer have grown to their working depth, generating,
// enqueuing, scheduling, encoding and completing accesses allocates
// nothing, in expected-energy and exact-data mode alike.
func TestDriverSteadyStateAllocFree(t *testing.T) {
	for _, exact := range []bool{false, true} {
		cfg := memctrl.Config{Policy: memctrl.SMOREs,
			Scheme: core.Scheme{Specification: core.VariableCode, Detection: core.Exhaustive}}
		cfg.Bus.ExactData = exact
		ctrl, err := memctrl.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		g := &randGen{r: rng.New(11), ws: 1 << 16, wfrac: 0.3, think: 3}
		d, err := NewDriver(DriverConfig{MSHRs: 32}, ctrl, g)
		if err != nil {
			t.Fatal(err)
		}
		advance := func(n int64) {
			for target := d.res.Accesses + n; d.res.Accesses < target; {
				d.cycle(true)
			}
		}
		advance(20000) // warm-up
		const n = 5000
		if allocs := testing.AllocsPerRun(1, func() { advance(n) }); allocs != 0 {
			t.Errorf("exact=%v: %v allocations over %d accesses in steady state", exact, allocs, n)
		}
	}
}
