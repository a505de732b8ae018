package report

import (
	"math"
	"strconv"
	"testing"

	"smores/internal/core"
	"smores/internal/memctrl"
	"smores/internal/obs"
	"smores/internal/workload"
)

// TestObsReconcilesWithReportTables is the one-source-of-truth check: the
// live obs counters a run publishes must match, exactly, the Stats structs
// the report tables are built from. Any drift means a module updated one
// accounting path without the other.
func TestObsReconcilesWithReportTables(t *testing.T) {
	reg := obs.NewRegistry()
	p, _ := workload.ByName("bfs")
	spec := RunSpec{
		Policy:   memctrl.SMOREs,
		Scheme:   core.Scheme{Specification: core.VariableCode, Detection: core.Exhaustive},
		Accesses: 4000, Seed: 7, UseLLC: true,
		Obs: reg,
	}
	ar, err := RunApp(p, spec)
	if err != nil {
		t.Fatal(err)
	}

	ch := obs.L("channel", "0") // memctrl's default label for its submodules
	eqI := func(name string, labels []obs.Label, want int64) {
		t.Helper()
		if got := int64(reg.Value(name, labels...)); got != want {
			t.Errorf("%s%v = %d, report table says %d", name, labels, got, want)
		}
	}
	eqF := func(name string, labels []obs.Label, want float64) {
		t.Helper()
		got := reg.Value(name, labels...)
		// The obs mirror adds the identical float deltas in the identical
		// order, so the sums must agree to round-off.
		if math.Abs(got-want) > 1e-6*math.Max(1, math.Abs(want)) {
			t.Errorf("%s%v = %v, report table says %v", name, labels, got, want)
		}
	}

	// Bus energy — the quantities behind Table 5 / Fig. 8.
	eqF("smores_bus_wire_energy_femtojoules_total", []obs.Label{ch}, ar.Bus.WireEnergy)
	eqF("smores_bus_postamble_energy_femtojoules_total", []obs.Label{ch}, ar.Bus.PostambleEnergy)
	eqF("smores_bus_logic_energy_femtojoules_total", []obs.Label{ch}, ar.Bus.LogicEnergy)
	eqF("smores_bus_data_bits_total", []obs.Label{ch}, ar.Bus.DataBits)
	eqI("smores_bus_postambles_total", []obs.Label{ch}, ar.Bus.Postambles)
	eqI("smores_bus_busy_uis_total", []obs.Label{ch}, ar.Bus.BusyUIs)
	eqI("smores_bus_idle_uis_total", []obs.Label{ch}, ar.Bus.IdleUIs)
	eqI("smores_bus_transition_violations_total", []obs.Label{ch}, ar.Bus.Violations)

	// Burst mix by codec: MTA bursts plus all sparse lengths must equal
	// the channel's own burst counters.
	mta := int64(reg.Value("smores_bus_bursts_total", ch, obs.L("codec", "mta")))
	if mta != ar.Bus.MTABursts {
		t.Errorf("mta bursts = %d, want %d", mta, ar.Bus.MTABursts)
	}
	var sparse int64
	for n := core.MinSparseSymbols; n <= core.MaxSparseSymbols; n++ {
		sparse += int64(reg.Value("smores_bus_bursts_total", ch, obs.L("codec", core.CodecLabel(n))))
	}
	if sparse != ar.Bus.SparseBursts {
		t.Errorf("sparse bursts = %d, want %d", sparse, ar.Bus.SparseBursts)
	}

	// Controller service counters — the latency/served columns.
	eqI("smores_ctrl_reads_served_total", []obs.Label{ch}, ar.Ctrl.ReadsServed)
	eqI("smores_ctrl_writes_served_total", []obs.Label{ch}, ar.Ctrl.WritesServed)
	eqI("smores_ctrl_read_latency_clocks_total", []obs.Label{ch}, ar.Ctrl.ReadLatencySum)
	eqI("smores_ctrl_sparse_transfers_total", []obs.Label{ch, obs.L("dir", "read")}, ar.Ctrl.SparseReads)
	eqI("smores_ctrl_sparse_transfers_total", []obs.Label{ch, obs.L("dir", "write")}, ar.Ctrl.SparseWrites)
	eqI("smores_ctrl_decision_mismatches_total", []obs.Label{ch}, 0)
	eqI("smores_ctrl_bus_conflicts_total", []obs.Label{ch}, 0)

	// Gap histograms (Fig. 5): every bucket, including the overflow tail.
	for _, dir := range []struct {
		name string
		h    interface {
			Count(int) int64
			Overflow() int64
			Total() int64
		}
	}{{"read", ar.ReadGaps}, {"write", ar.WriteGaps}} {
		oh := reg.HistogramSeries("smores_ctrl_gap_clocks", ch, obs.L("dir", dir.name))
		if oh == nil {
			t.Fatalf("missing gap histogram series dir=%s", dir.name)
		}
		for b := 0; b < 17; b++ {
			if got := oh.BucketCount(b); got != dir.h.Count(b) {
				t.Errorf("%s gap bucket %d = %d, report histogram says %d", dir.name, b, got, dir.h.Count(b))
			}
		}
		if got := oh.BucketCount(17); got != dir.h.Overflow() {
			t.Errorf("%s gap overflow = %d, want %d", dir.name, got, dir.h.Overflow())
		}
		if oh.Count() != dir.h.Total() {
			t.Errorf("%s gap total = %d, want %d", dir.name, oh.Count(), dir.h.Total())
		}
	}

	// GPU side: the driver's DRAM traffic must match the AppResult columns
	// (driver metrics carry the spec labels, none here).
	eqI("smores_gpu_dram_reads_total", nil, ar.Reads)
	eqI("smores_gpu_dram_writes_total", nil, ar.Writes)
	if got := int64(reg.Value("smores_gpu_accesses_total")); got != spec.Accesses {
		t.Errorf("accesses = %d, want %d", got, spec.Accesses)
	}

	// DRAM command counters: one RD per read served, one WR per write.
	eqI("smores_dram_commands_total", []obs.Label{ch, obs.L("cmd", "rd")}, ar.Ctrl.ReadsServed)
	eqI("smores_dram_commands_total", []obs.Label{ch, obs.L("cmd", "wr")}, ar.Ctrl.WritesServed)
}

// TestFleetWorkerCountDeterministic proves worker count cannot change
// results: a 4-worker run must reproduce the sequential run bit-for-bit,
// app by app, in fleet order.
func TestFleetWorkerCountDeterministic(t *testing.T) {
	spec := RunSpec{
		Policy:   memctrl.SMOREs,
		Scheme:   core.Scheme{Specification: core.StaticCode, Detection: core.Conservative},
		Accesses: 400, Seed: 3,
	}
	seq, err := RunFleet(spec)
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunFleetApps(workload.Fleet(), spec, FleetOptions{Workers: 4, Progress: obs.NewProgress(int64(len(workload.Fleet())))})
	if err != nil {
		t.Fatal(err)
	}
	if len(seq.Results) != len(par.Results) {
		t.Fatalf("result counts differ: %d vs %d", len(seq.Results), len(par.Results))
	}
	for i := range seq.Results {
		s, p := seq.Results[i], par.Results[i]
		if s.App.Name != p.App.Name {
			t.Fatalf("app %d ordering differs: %s vs %s", i, s.App.Name, p.App.Name)
		}
		if s.PerBit != p.PerBit || s.Clocks != p.Clocks || s.Reads != p.Reads ||
			s.Writes != p.Writes || s.Ctrl != p.Ctrl || s.Bus != p.Bus {
			t.Errorf("app %s diverged between sequential and parallel runs", s.App.Name)
		}
	}
	if seq.MeanPerBit() != par.MeanPerBit() {
		t.Errorf("fleet mean diverged: %v vs %v", seq.MeanPerBit(), par.MeanPerBit())
	}
}

// TestFleetWorkerMetrics checks the per-worker counters cover the
// whole fleet, with one series per pool worker and none on the
// sequential path.
func TestFleetWorkerMetrics(t *testing.T) {
	series := func(reg *obs.Registry) int {
		for _, fam := range reg.Gather() {
			if fam.Name == "smores_fleet_worker_apps_total" {
				return len(fam.Series)
			}
		}
		return 0
	}
	reg := obs.NewRegistry()
	spec := RunSpec{Policy: memctrl.BaselineMTA, Accesses: 200, Seed: 5}
	fr, err := RunFleetApps(workload.Fleet(), spec, FleetOptions{Workers: 3, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	var done int64
	for w := 0; w < 3; w++ {
		done += int64(reg.Value("smores_fleet_worker_apps_total", obs.L("worker", strconv.Itoa(w))))
	}
	if done != int64(len(fr.Results)) {
		t.Errorf("worker counters sum to %d, want %d", done, len(fr.Results))
	}
	if n := series(reg); n != 3 {
		t.Errorf("3 workers registered %d worker series, want 3", n)
	}
	// App-scoped series must exist for a known fleet member.
	if v := reg.Value("smores_gpu_accesses_total", obs.L("app", "bfs")); v != 200 {
		t.Errorf("app-scoped accesses = %v, want 200", v)
	}
	seq := obs.NewRegistry()
	if _, err := RunFleetApps(workload.Fleet()[:2], spec, FleetOptions{Workers: 1, Obs: seq}); err != nil {
		t.Fatal(err)
	}
	if n := series(seq); n != 0 {
		t.Errorf("sequential fleet registered %d worker series, want none", n)
	}
}
