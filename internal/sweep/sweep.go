// Package sweep runs design-space sensitivity studies around the paper's
// chosen operating points: the conservative detection window (the paper
// fixes 8 clocks), the read latency that gap detection leans on, and the
// workload scale. Each sweep reruns the fleet under the varied parameter
// and reports the headline saving, exposing how robust the published
// design choices are.
package sweep

import (
	"fmt"
	"strings"

	"smores/internal/core"
	"smores/internal/gddr6x"
	"smores/internal/memctrl"
	"smores/internal/report"
	"smores/internal/workload"
)

// Point is one sweep sample.
type Point struct {
	// Param is the varied parameter's value.
	Param float64
	// Saving is the fleet-mean energy saving vs the matching baseline.
	Saving float64
	// PerBit is the SMOREs fleet-mean fJ/bit.
	PerBit float64
}

// Config bounds sweep cost.
type Config struct {
	// Accesses per app per point.
	Accesses int64
	// Seed for reproducibility.
	Seed uint64
}

// DefaultConfig keeps sweeps to a few seconds per point.
func DefaultConfig() Config { return Config{Accesses: 4000, Seed: 1} }

// spec is the run spec of one sweep point.
func (cfg Config) spec(policy memctrl.EncodingPolicy, scheme core.Scheme, timing *gddr6x.Timing) report.RunSpec {
	return report.RunSpec{Policy: policy, Scheme: scheme, Accesses: cfg.Accesses, Seed: cfg.Seed, Timing: timing}
}

// windowSpec is the conservative-window sweep's spec for a w-clock window.
func windowSpec(cfg Config, w int) report.RunSpec {
	return cfg.spec(memctrl.SMOREs, core.Scheme{Specification: core.StaticCode, Detection: core.Conservative, WindowClocks: w}, nil)
}

// fleetMean runs spec over fleet and returns the fleet-mean fJ/bit.
func fleetMean(fleet []workload.Profile, opts report.FleetOptions, spec report.RunSpec) (float64, error) {
	fr, err := report.RunFleetApps(fleet, spec, opts)
	if err != nil {
		return 0, err
	}
	return fr.MeanPerBit(), nil
}

// ConservativeWindow sweeps the conservative detection window over fleet:
// small windows miss gaps (the next command hasn't arrived yet), large
// windows approach exhaustive detection. The paper's 8-clock choice sits
// at the knee. Each point's fleet runs on opts.Workers workers; the
// points are the same at every worker count.
func ConservativeWindow(fleet []workload.Profile, cfg Config, opts report.FleetOptions, windows []int) ([]Point, error) {
	base, err := fleetMean(fleet, opts, cfg.spec(memctrl.BaselineMTA, core.Scheme{}, nil))
	if err != nil {
		return nil, err
	}
	var out []Point
	for _, w := range windows {
		if w < 1 {
			return nil, fmt.Errorf("sweep: window %d must be positive", w)
		}
		mean, err := fleetMean(fleet, opts, windowSpec(cfg, w))
		if err != nil {
			return nil, err
		}
		out = append(out, Point{Param: float64(w), Saving: 1 - mean/base, PerBit: mean})
	}
	return out, nil
}

// ReadLatency sweeps RL over fleet: the mechanism requires the gap
// decision to be made before data leaves at RL, so savings should be flat
// across realistic latencies — the decision deadline scales with RL.
// Workers are as for ConservativeWindow.
func ReadLatency(fleet []workload.Profile, cfg Config, opts report.FleetOptions, rls []int64) ([]Point, error) {
	var out []Point
	for _, rl := range rls {
		timing := gddr6x.DefaultTiming()
		timing.RL = rl
		if timing.TRTW < rl-timing.WL+timing.TCCD {
			timing.TRTW = rl - timing.WL + timing.TCCD + 2
		}
		if err := timing.Validate(); err != nil {
			return nil, fmt.Errorf("sweep: RL=%d: %w", rl, err)
		}
		base, err := fleetMean(fleet, opts, cfg.spec(memctrl.BaselineMTA, core.Scheme{}, &timing))
		if err != nil {
			return nil, err
		}
		mean, err := fleetMean(fleet, opts, cfg.spec(memctrl.SMOREs,
			core.Scheme{Specification: core.StaticCode, Detection: core.Exhaustive}, &timing))
		if err != nil {
			return nil, err
		}
		out = append(out, Point{Param: float64(rl), Saving: 1 - mean/base, PerBit: mean})
	}
	return out, nil
}

// Render formats a sweep as a table.
func Render(title, param string, points []Point) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n%-12s %12s %12s\n", title, param, "saving", "fJ/bit")
	for _, p := range points {
		fmt.Fprintf(&b, "%-12g %11.1f%% %12.1f\n", p.Param, p.Saving*100, p.PerBit)
	}
	return b.String()
}
