package sweep

import (
	"math"
	"strings"
	"testing"

	"smores/internal/core"
	"smores/internal/memctrl"
	"smores/internal/report"
	"smores/internal/workload"
)

func quickCfg() Config { return Config{Accesses: 1200, Seed: 2} }

var sequential = report.FleetOptions{Workers: 1}

func TestConservativeWindowSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet sweep")
	}
	points, err := ConservativeWindow(workload.Fleet(), quickCfg(), sequential, []int{1, 2, 4, 8, 16})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 5 {
		t.Fatalf("got %d points", len(points))
	}
	// 1- and 2-clock windows close before any idle clock after a burst
	// can be seen (column commands are at least tCCD = 2 clocks apart),
	// so no gap is ever known: every burst stays MTA and drives its
	// postamble into the gap that follows — the baseline, bit for bit.
	base, err := fleetMean(workload.Fleet(), sequential, quickCfg().spec(memctrl.BaselineMTA, core.Scheme{}, nil))
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range []int{1, 2} {
		fr, err := report.RunFleetApps(workload.Fleet(), windowSpec(quickCfg(), w), sequential)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range fr.Results {
			if n := r.Ctrl.SparseReads + r.Ctrl.SparseWrites; n != 0 {
				t.Errorf("window %d, %s: %d sparse bursts", w, r.App.Name, n)
			}
		}
		if math.Float64bits(points[i].PerBit) != math.Float64bits(base) {
			t.Errorf("window %d: %v fJ/bit, baseline %v", w, points[i].PerBit, base)
		}
	}
	// Larger windows catch more gaps: savings must be non-decreasing
	// (within noise) and, past window 2, positive.
	for i, p := range points {
		if p.Param > 2 && p.Saving <= 0.05 {
			t.Errorf("window %g: saving %.1f%% implausibly low", p.Param, p.Saving*100)
		}
		if i > 0 && p.Saving < points[i-1].Saving-0.02 {
			t.Errorf("saving dropped from %.3f to %.3f at window %g",
				points[i-1].Saving, p.Saving, p.Param)
		}
	}
	// The paper's knee: window 8 captures most of window 16's benefit.
	if points[4].Saving-points[3].Saving > 0.05 {
		t.Errorf("window 8 (%.3f) far from window 16 (%.3f): knee not reproduced",
			points[3].Saving, points[4].Saving)
	}
	t.Log("\n" + Render("conservative window sweep", "clocks", points))
}

func TestReadLatencySweep(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet sweep")
	}
	points, err := ReadLatency(workload.Fleet(), quickCfg(), sequential, []int64{20, 30, 40})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range points {
		if p.Saving < 0.15 || p.Saving > 0.45 {
			t.Errorf("RL=%g: saving %.1f%% outside plausible band", p.Param, p.Saving*100)
		}
	}
	// Savings are insensitive to RL (the decision deadline scales).
	spread := points[0].Saving - points[len(points)-1].Saving
	if spread > 0.05 || spread < -0.05 {
		t.Errorf("savings vary %.3f across RL sweep; mechanism should be latency-insensitive", spread)
	}
	t.Log("\n" + Render("read latency sweep", "RL clocks", points))
}

func TestSweepValidation(t *testing.T) {
	if _, err := ConservativeWindow(workload.Fleet(), quickCfg(), sequential, []int{0}); err == nil {
		t.Error("zero window must error")
	}
	if _, err := ReadLatency(workload.Fleet(), quickCfg(), sequential, []int64{0}); err == nil {
		t.Error("zero RL must error")
	}
}

func TestRender(t *testing.T) {
	out := Render("t", "p", []Point{{Param: 8, Saving: 0.25, PerBit: 550}})
	if !strings.Contains(out, "25.0%") || !strings.Contains(out, "550") {
		t.Errorf("render malformed: %s", out)
	}
}

// TestSweepWorkerInvariance runs both sweeps on one and on three workers:
// every point must be the same bit for bit.
func TestSweepWorkerInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet sweep")
	}
	cfg := Config{Accesses: 400, Seed: 3}
	for _, sweep := range []func(report.FleetOptions) ([]Point, error){
		func(o report.FleetOptions) ([]Point, error) {
			return ConservativeWindow(workload.Fleet(), cfg, o, []int{3, 8})
		},
		func(o report.FleetOptions) ([]Point, error) {
			return ReadLatency(workload.Fleet(), cfg, o, []int64{25})
		},
	} {
		seq, err := sweep(sequential)
		if err != nil {
			t.Fatal(err)
		}
		par, err := sweep(report.FleetOptions{Workers: 3})
		if err != nil {
			t.Fatal(err)
		}
		if len(seq) != len(par) {
			t.Fatalf("%d points on one worker, %d on three", len(seq), len(par))
		}
		for i := range seq {
			s, p := seq[i], par[i]
			if math.Float64bits(s.Param) != math.Float64bits(p.Param) ||
				math.Float64bits(s.Saving) != math.Float64bits(p.Saving) ||
				math.Float64bits(s.PerBit) != math.Float64bits(p.PerBit) {
				t.Errorf("point %d: %+v on one worker, %+v on three", i, s, p)
			}
		}
	}
}
