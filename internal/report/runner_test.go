package report

import (
	"fmt"
	"strings"
	"testing"

	"smores/internal/core"
	"smores/internal/fault"
	"smores/internal/memctrl"
	"smores/internal/obs"
	"smores/internal/stats"
	"smores/internal/workload"
)

func TestRunAppBaseline(t *testing.T) {
	p, _ := workload.ByName("bfs")
	r, err := RunApp(p, RunSpec{Policy: memctrl.BaselineMTA, Accesses: 3000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r.Reads == 0 || r.Clocks == 0 {
		t.Fatal("no traffic simulated")
	}
	if r.PerBit < 560 || r.PerBit > 950 {
		t.Errorf("baseline per-bit = %.1f, expected between MTA (585) and MTA+postamble (910)", r.PerBit)
	}
	if r.ReadGaps.Total() == 0 {
		t.Error("no gap samples")
	}
	if r.IdleFrequency <= 0 || r.IdleFrequency >= 1 {
		t.Errorf("idle frequency = %.2f", r.IdleFrequency)
	}
	if r.AvgReadLatency < 30 {
		t.Errorf("read latency = %.1f clocks, below RL", r.AvgReadLatency)
	}
}

func TestSameSeedReplaysIdenticalTraffic(t *testing.T) {
	p, _ := workload.ByName("lulesh")
	a, err := RunApp(p, RunSpec{Policy: memctrl.BaselineMTA, Accesses: 2000, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunApp(p, RunSpec{
		Policy:   memctrl.SMOREs,
		Scheme:   core.Scheme{Specification: core.StaticCode, Detection: core.Exhaustive},
		Accesses: 2000, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if a.Reads != b.Reads || a.Writes != b.Writes {
		t.Errorf("traffic diverged across policies: %d/%d vs %d/%d", a.Reads, a.Writes, b.Reads, b.Writes)
	}
	if b.PerBit >= a.PerBit {
		t.Errorf("SMOREs (%.1f) not cheaper than baseline (%.1f)", b.PerBit, a.PerBit)
	}
}

func TestPolicySpecs(t *testing.T) {
	specs := PolicySpecs(100, 1, false)
	if len(specs) != 5 {
		t.Fatalf("got %d specs", len(specs))
	}
	if specs[0].Policy != memctrl.BaselineMTA || specs[1].Policy != memctrl.OptimizedMTA {
		t.Error("baseline ordering wrong")
	}
	if specs[2].Scheme.Specification != core.VariableCode {
		t.Error("third spec should be variable")
	}
	if specs[4].Scheme.Detection != core.Conservative {
		t.Error("fifth spec should be conservative")
	}
}

// TestFleetCalibration runs the whole fleet at reduced scale and checks
// the headline reproduction targets with tolerant bands:
// Fig. 5's gap distribution and Table V's savings ordering.
func TestFleetCalibration(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet calibration is a long test")
	}
	const accesses = 6000
	base, err := RunFleet(RunSpec{Policy: memctrl.BaselineMTA, Accesses: accesses, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	gaps, err := base.AggregateGaps(true)
	if err != nil {
		t.Fatal(err)
	}
	if g0 := gaps.Fraction(0); g0 < 0.45 || g0 > 0.70 {
		t.Errorf("read gap-0 fraction = %.2f, paper reports 0.592", g0)
	}
	if g1 := gaps.Fraction(1); g1 < 0.20 || g1 > 0.40 {
		t.Errorf("read gap-1 fraction = %.2f, paper reports 0.291", g1)
	}
	if tail := gaps.OverflowFraction(); tail < 0.02 || tail > 0.12 {
		t.Errorf("read >16 fraction = %.2f, paper reports 0.069", tail)
	}
	wgaps, err := base.AggregateGaps(false)
	if err != nil {
		t.Fatal(err)
	}
	if g0 := wgaps.Fraction(0); g0 < 0.40 || g0 > 0.75 {
		t.Errorf("write gap-0 fraction = %.2f, paper reports 0.591", g0)
	}

	variable, err := RunFleet(RunSpec{
		Policy:   memctrl.SMOREs,
		Scheme:   core.Scheme{Specification: core.VariableCode, Detection: core.Exhaustive},
		Accesses: accesses, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	static, err := RunFleet(RunSpec{
		Policy:   memctrl.SMOREs,
		Scheme:   core.Scheme{Specification: core.StaticCode, Detection: core.Exhaustive},
		Accesses: accesses, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	cons, err := RunFleet(RunSpec{
		Policy:   memctrl.SMOREs,
		Scheme:   core.Scheme{Specification: core.StaticCode, Detection: core.Conservative},
		Accesses: accesses, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}

	b := base.MeanPerBit()
	sVar := 1 - variable.MeanPerBit()/b
	sStat := 1 - static.MeanPerBit()/b
	sCons := 1 - cons.MeanPerBit()/b
	t.Logf("Table V savings: variable %.1f%% (paper 28.2), static %.1f%% (26.8), conservative %.1f%% (25.2)",
		sVar*100, sStat*100, sCons*100)
	if !(sVar > sStat && sStat > sCons) {
		t.Errorf("savings ordering broken: %.3f, %.3f, %.3f", sVar, sStat, sCons)
	}
	if sVar < 0.22 || sVar > 0.40 {
		t.Errorf("variable saving %.1f%% outside the paper's band (28.2%%)", sVar*100)
	}
	if sCons < 0.15 || sCons > 0.35 {
		t.Errorf("conservative saving %.1f%% outside the paper's band (25.2%%)", sCons*100)
	}
}

func TestAggregateGapsMergesAllApps(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet run")
	}
	fr, err := RunFleet(RunSpec{Policy: memctrl.BaselineMTA, Accesses: 800, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(fr.Results) != 42 {
		t.Fatalf("fleet results = %d", len(fr.Results))
	}
	agg, err := fr.AggregateGaps(true)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, r := range fr.Results {
		total += r.ReadGaps.Total()
	}
	if agg.Total() != total {
		t.Errorf("aggregate total %d != sum %d", agg.Total(), total)
	}
}

// TestRunFleetEmptyFleet pins the empty-fleet contract: an empty
// application list yields an empty result and no error on both the
// sequential and parallel paths (this used to panic indexing
// results[len(results)-1] for the label).
func TestRunFleetEmptyFleet(t *testing.T) {
	spec := RunSpec{Policy: memctrl.BaselineMTA, Accesses: 100, Seed: 1}
	for _, workers := range []int{1, 4} {
		fr, err := RunFleetApps(nil, spec, FleetOptions{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(fr.Results) != 0 || fr.Label != "" {
			t.Errorf("workers=%d: empty fleet produced results=%d label=%q",
				workers, len(fr.Results), fr.Label)
		}
		if agg, err := fr.AggregateGaps(true); err != nil || agg.Total() != 0 {
			t.Errorf("workers=%d: empty aggregate: total=%v err=%v", workers, agg.Total(), err)
		}
	}
}

// TestRunFleetPartialFailure pins the unified error contract of the
// sequential and parallel paths: every app runs, the reported failure is
// the lowest-indexed one regardless of scheduling, successfully completed
// results are preserved in fleet order, and the label comes from the
// last successful result — so the result does not depend on the worker
// count. The profile holds exactly the surviving runs' energy.
func TestRunFleetPartialFailure(t *testing.T) {
	good1, _ := workload.ByName("bfs")
	good2, _ := workload.ByName("lulesh")
	bad := good1
	bad.Name = "broken"
	bad.MSHRs = 0 // fails Profile.Validate inside RunApp
	fleet := []workload.Profile{good1, bad, good2}
	var labels []string
	for _, workers := range []int{1, 3} {
		prof := obs.NewProfile()
		spec := RunSpec{Policy: memctrl.BaselineMTA, Accesses: 200, Seed: 3, Profile: prof}
		fr, err := RunFleetApps(fleet, spec, FleetOptions{Workers: workers})
		if err == nil {
			t.Fatalf("workers=%d: expected error from app 1", workers)
		}
		if !strings.Contains(err.Error(), "fleet app 1") {
			t.Errorf("workers=%d: error %q does not name fleet app 1", workers, err)
		}
		if len(fr.Results) != 2 {
			t.Fatalf("workers=%d: preserved %d results, want 2 (apps 0 and 2)", workers, len(fr.Results))
		}
		for i, want := range []string{"bfs", "lulesh"} {
			if r := fr.Results[i]; r.App.Name != want || r.Reads == 0 {
				t.Errorf("workers=%d: result %d is %s with %d reads, want %s with traffic",
					workers, i, r.App.Name, r.Reads, want)
			}
		}
		if fr.Label != fr.Results[1].Label {
			t.Errorf("workers=%d: label %q not from last successful result", workers, fr.Label)
		}
		if err := ReconcileProfile(prof, fr); err != nil {
			t.Errorf("workers=%d: %v", workers, err)
		}
		labels = append(labels, fr.Label)
	}
	if labels[0] != labels[1] {
		t.Errorf("label depends on the worker count: %q vs %q", labels[0], labels[1])
	}
}

// TestFleetProfileDeterministic pins the fleet profile bit-identical at
// every worker count: runs publish into the shared profile in fleet
// order, whatever order they finish in. One spec is the expected-mode
// variable-SMOREs fleet, the other exact data with EDC faults, whose
// per-symbol cells and replays take the tally's other path.
func TestFleetProfileDeterministic(t *testing.T) {
	variable := PolicySpecs(3000, 1, false)[2]
	faulty := PolicySpecs(1000, 1, false)[2]
	faulty.ExactData = true
	faulty.Fault = &fault.Config{Model: fault.ModelUniform, Rate: 1e-3, EDC: true, Seed: 1}
	cases := []struct {
		name  string
		spec  RunSpec
		fleet []workload.Profile
	}{
		{"expected", variable, workload.Fleet()},
		{"exact-faults", faulty, workload.Fleet()[:6]},
	}
	for _, c := range cases {
		var want []obs.ProfileCell
		for _, workers := range []int{1, 2, 4} {
			prof := obs.NewProfile()
			spec := c.spec
			spec.Profile = prof
			fr, err := RunFleetApps(c.fleet, spec, FleetOptions{Workers: workers})
			if err != nil {
				t.Fatalf("%s workers %d: %v", c.name, workers, err)
			}
			if err := ReconcileProfile(prof, fr); err != nil {
				t.Fatalf("%s workers %d: %v", c.name, workers, err)
			}
			cells := prof.Snapshot().Cells
			if workers == 1 {
				if len(cells) == 0 {
					t.Fatalf("%s: empty profile — the test is vacuous", c.name)
				}
				want = cells
				continue
			}
			requireSameCells(t, fmt.Sprintf("%s workers %d", c.name, workers), want, cells)
		}
	}
}

// RunApp rejects a non-positive access budget up front: the synthetic
// generators never end, so the run would otherwise spin to the driver's
// clock limit.
func TestRunAppRejectsNonPositiveBudget(t *testing.T) {
	p, _ := workload.ByName("bfs")
	for _, accesses := range []int64{0, -5} {
		r, err := RunApp(p, RunSpec{Policy: memctrl.BaselineMTA, Accesses: accesses, Seed: 1})
		if err == nil || !strings.Contains(err.Error(), "needs a positive access budget") {
			t.Errorf("accesses=%d: err = %v, want a positive-budget error", accesses, err)
		}
		if r.Reads != 0 || r.Label != "" || r.ReadGaps != nil {
			t.Errorf("accesses=%d: error must come with the zero AppResult, got %+v", accesses, r)
		}
	}
}

// TestAggregateGapsNonDefaultBuckets pins the sizing fix: the aggregate
// takes its bucket count from the first result instead of a hard-coded
// 17, and a mismatch between results is an error, not a panic.
func TestAggregateGapsNonDefaultBuckets(t *testing.T) {
	mk := func(buckets int, samples ...int) *stats.Histogram {
		h := stats.NewHistogram(buckets)
		for _, s := range samples {
			h.Add(s)
		}
		return h
	}
	app := workload.Profile{Name: "synthetic"}
	fr := FleetResult{Results: []AppResult{
		{App: app, ReadGaps: mk(21, 0, 5, 20), WriteGaps: mk(21, 1)},
		{App: app, ReadGaps: mk(21, 20, 20), WriteGaps: mk(21)},
	}}
	agg, err := fr.AggregateGaps(true)
	if err != nil {
		t.Fatal(err)
	}
	if agg.Buckets() != 21 {
		t.Errorf("aggregate has %d buckets, want 21 (sized from results)", agg.Buckets())
	}
	if agg.Total() != 5 || agg.Count(20) != 3 {
		t.Errorf("aggregate total=%d count(20)=%d, want 5 and 3", agg.Total(), agg.Count(20))
	}
	fr.Results[1].ReadGaps = mk(17, 2)
	if _, err := fr.AggregateGaps(true); err == nil {
		t.Error("bucket-count mismatch did not error")
	}
}

// TestRunFleetApps runs a two-app subset end to end and checks the
// per-app seeds match fleet-position derivation.
func TestRunFleetApps(t *testing.T) {
	fleet := workload.Fleet()[:2]
	spec := RunSpec{Policy: memctrl.BaselineMTA, Accesses: 200, Seed: 11}
	fr, err := RunFleetApps(fleet, spec, FleetOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(fr.Results) != 2 {
		t.Fatalf("results = %d", len(fr.Results))
	}
	// Same subset through the worker pool is identical.
	fr2, err := RunFleetApps(fleet, spec, FleetOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := range fr.Results {
		if fr.Results[i].Bus.TotalEnergy() != fr2.Results[i].Bus.TotalEnergy() {
			t.Errorf("app %d energy differs across worker counts", i)
		}
	}
}

// TestFleetWorkerCountDeterministic proves worker count cannot change
// results: for every policy of the evaluation matrix, a 4-worker run
// must reproduce the sequential run bit-for-bit, app by app, in fleet
// order. The paper's ladder must hold even at this small scale: every
// SMOREs point (specs 2-4) spends less energy per bit than the
// baseline MTA fleet (spec 0).
func TestFleetWorkerCountDeterministic(t *testing.T) {
	specs := PolicySpecs(400, 3, false)
	means := make([]float64, len(specs))
	for si, spec := range specs {
		seq, err := RunFleet(spec)
		if err != nil {
			t.Fatal(err)
		}
		par, err := RunFleetApps(workload.Fleet(), spec, FleetOptions{Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		if len(seq.Results) != len(par.Results) {
			t.Fatalf("%s: result counts differ: %d vs %d", seq.Label, len(seq.Results), len(par.Results))
		}
		for i := range seq.Results {
			s, p := seq.Results[i], par.Results[i]
			if s.App.Name != p.App.Name {
				t.Fatalf("%s: app %d ordering differs: %s vs %s", seq.Label, i, s.App.Name, p.App.Name)
			}
			if s.PerBit != p.PerBit || s.Clocks != p.Clocks || s.Reads != p.Reads ||
				s.Writes != p.Writes || s.Ctrl != p.Ctrl || s.Bus != p.Bus {
				t.Errorf("%s: app %s diverged between sequential and parallel runs", seq.Label, s.App.Name)
			}
		}
		means[si] = seq.MeanPerBit()
		if means[si] != par.MeanPerBit() {
			t.Errorf("%s: fleet mean diverged: %v vs %v", seq.Label, means[si], par.MeanPerBit())
		}
		if means[si] <= 0 {
			t.Errorf("%s: no energy recorded", seq.Label)
		}
	}
	for si := 2; si < len(specs); si++ {
		if means[si] >= means[0] {
			t.Errorf("spec %d: %v fJ/bit does not beat the baseline's %v", si, means[si], means[0])
		}
	}
}
