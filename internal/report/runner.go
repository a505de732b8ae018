// Package report is the evaluation harness: it runs workloads through the
// full stack (generator → LLC → controller → channel) under each encoding
// policy and produces the paper's tables and figures as formatted text.
package report

import (
	"fmt"
	"strconv"

	"smores/internal/bus"
	"smores/internal/core"
	"smores/internal/fault"
	"smores/internal/gddr6x"
	"smores/internal/gpu"
	"smores/internal/memctrl"
	"smores/internal/obs"
	"smores/internal/shard"
	"smores/internal/stats"
	"smores/internal/workload"
)

// RunSpec selects one simulation configuration.
type RunSpec struct {
	// Policy and Scheme select the encoding.
	Policy memctrl.EncodingPolicy
	Scheme core.Scheme
	// Accesses is the workload length in LLC-level accesses.
	Accesses int64
	// Seed makes runs reproducible; the same seed with different policies
	// replays identical traffic.
	Seed uint64
	// UseLLC interposes the 6 MB sectored cache.
	UseLLC bool
	// ExtraCodecLatency is the §V-A pipeline ablation.
	ExtraCodecLatency int64
	// WindowClocks overrides the conservative detection window (0 keeps
	// the paper's 8 clocks).
	WindowClocks int
	// Timing overrides the GDDR6X timing parameters (nil keeps defaults).
	Timing *gddr6x.Timing
	// Pages selects the row-buffer policy ablation.
	Pages memctrl.PagePolicy

	// ExactData puts real symbol streams on the wires (random payloads
	// standing in for encrypted traffic) instead of the expected-energy
	// fast path. Implied by Fault.
	ExactData bool
	// Fault, when non-nil, installs a link-reliability injector built
	// from this configuration on the run's channel (a fresh injector per
	// run — they are stateful). The injector's layered detection stats
	// surface in AppResult.Fault.
	Fault *fault.Config
	// Replay tunes the EDC retransmission machinery (see
	// memctrl.ReplayConfig); only consulted when Fault is set.
	Replay memctrl.ReplayConfig

	// Obs, when non-nil, registers live counters for the whole stack
	// (controller, device, channel, LLC, driver) into the registry; the
	// series are scoped by ObsLabels. Nil disables telemetry.
	Obs       *obs.Registry
	ObsLabels []obs.Label
	// Tracer records cycle-level events for Chrome-trace export (nil
	// disables tracing).
	Tracer *obs.Tracer
	// Profile attributes every femtojoule of bus energy into the energy
	// profiler (phase × codec × wire × level × transition class). The
	// profiler is lock-free and may be shared across parallel fleet
	// workers; its total reconciles with the summed bus.Stats of every
	// run that fed it. Nil disables attribution.
	Profile *obs.Profile
	// Channel identifies the controller in traces and default labels.
	Channel int
}

// controllerConfig assembles the memctrl configuration for a spec.
func (s RunSpec) controllerConfig() memctrl.Config {
	scheme := s.Scheme
	if s.WindowClocks > 0 {
		scheme.WindowClocks = s.WindowClocks
	}
	cfg := memctrl.Config{
		Policy:            s.Policy,
		Scheme:            scheme,
		Pages:             s.Pages,
		ExtraCodecLatency: s.ExtraCodecLatency,
		Obs:               s.Obs,
		ObsLabels:         s.ObsLabels,
		Tracer:            s.Tracer,
		Channel:           s.Channel,
	}
	cfg.Bus.Profile = s.Profile
	cfg.Bus.ExactData = s.ExactData || s.Fault != nil
	cfg.Replay = s.Replay
	if s.Timing != nil {
		cfg.Timing = *s.Timing
	}
	return cfg
}

// faultInjector builds a fresh link-reliability injector for one run
// (nil spec.Fault yields nil). Injectors are stateful — never share one
// across runs or channels.
func (s RunSpec) faultInjector() (*fault.Injector, error) {
	if s.Fault == nil {
		return nil, nil
	}
	return fault.New(*s.Fault)
}

// DefaultAccesses is the per-app run length used by the evaluation
// commands. Tests use smaller budgets.
const DefaultAccesses = 60000

// AppResult is one (application, policy) simulation outcome.
type AppResult struct {
	App    workload.Profile
	Label  string
	PerBit float64 // fJ per transferred data bit, total
	Bus    bus.Stats
	Ctrl   memctrl.Stats
	// ReadGaps and WriteGaps are idle-clock histograms (Fig. 5).
	ReadGaps  *stats.Histogram
	WriteGaps *stats.Histogram
	Clocks    int64
	Reads     int64
	Writes    int64
	// AvgReadLatency is in command clocks.
	AvgReadLatency float64
	// IdleFrequency is the fraction of transfers followed by any gap —
	// the paper sorts Fig. 8's applications by it.
	IdleFrequency float64
	// Fault holds the link-reliability injector's layered detection
	// accounting (zero value when RunSpec.Fault was nil).
	Fault fault.Stats
	// ReplayedReads counts retransmissions observed on completed reads.
	ReplayedReads int64
}

// RunApp simulates one application under one spec. The generator comes
// from workload.OpenGenerator, so trace-backed fleet members replay
// their recorded stream while synthetic apps synthesize from the seed.
// spec.Accesses must be positive: synthetic generators never end.
func RunApp(p workload.Profile, spec RunSpec) (AppResult, error) {
	return runApp(p, spec, false)
}

// runApp is RunApp; perClock pins the controller and driver to the
// one-clock-at-a-time tick loop, the oracle TestEventSkipBitIdentical
// compares next-event skipping against.
func runApp(p workload.Profile, spec RunSpec, perClock bool) (AppResult, error) {
	if spec.Accesses <= 0 {
		return AppResult{}, fmt.Errorf("report: %s: run needs a positive access budget (generators are endless), got %d",
			p.Name, spec.Accesses)
	}
	gen, err := workload.OpenGenerator(p, spec.Seed)
	if err != nil {
		return AppResult{}, err
	}
	in, err := spec.faultInjector()
	if err != nil {
		return AppResult{}, err
	}
	ccfg := spec.controllerConfig()
	if in != nil {
		ccfg.Fault = in
	}
	ctrl, err := memctrl.New(ccfg)
	if err != nil {
		return AppResult{}, err
	}
	if perClock {
		ctrl.DisableEventSkip()
	}
	dcfg := gpu.DriverConfig{
		MSHRs:       p.MSHRs,
		MaxAccesses: spec.Accesses,
		Obs:         spec.Obs,
		ObsLabels:   spec.ObsLabels,
	}
	if spec.UseLLC {
		llc := gpu.DefaultLLCConfig()
		dcfg.LLC = &llc
	}
	drv, err := gpu.NewDriver(dcfg, ctrl, gen)
	if err != nil {
		return AppResult{}, err
	}
	res, err := drv.Run()
	if err != nil {
		return AppResult{}, fmt.Errorf("report: %s under %s: %w", p.Name, ctrl.Describe(), err)
	}

	ar := AppResult{
		App:            p,
		Label:          ctrl.Describe(),
		PerBit:         ctrl.BusStats().PerBit(),
		Bus:            ctrl.BusStats(),
		Ctrl:           ctrl.Stats(),
		ReadGaps:       ctrl.ReadGapHistogram(),
		WriteGaps:      ctrl.WriteGapHistogram(),
		Clocks:         res.Clocks,
		Reads:          res.DRAMReads,
		Writes:         res.DRAMWrites,
		AvgReadLatency: ctrl.AverageReadLatency(),
		ReplayedReads:  res.ReplayedReads,
	}
	// Invariant violations return the zero AppResult: a populated result
	// must never ride alongside an error, or callers can accidentally
	// consume statistics the violation just invalidated (the same
	// contract as the multi-channel runners).
	if in != nil {
		ar.Fault = in.Stats()
		if !ar.Fault.Conserves() {
			return AppResult{}, fmt.Errorf("report: %s: fault detection layers do not partition corrupted bursts: %v",
				p.Name, ar.Fault)
		}
	}
	if t := ar.ReadGaps.Total() + ar.WriteGaps.Total(); t > 0 {
		gapped := float64(t) - float64(ar.ReadGaps.Count(0)+ar.WriteGaps.Count(0))
		ar.IdleFrequency = gapped / float64(t)
	}
	if ar.Ctrl.DecisionMismatches != 0 {
		return AppResult{}, fmt.Errorf("report: %s: %d DRAM/GPU decision mismatches", p.Name, ar.Ctrl.DecisionMismatches)
	}
	if ar.Ctrl.BusConflicts != 0 {
		return AppResult{}, fmt.Errorf("report: %s: %d data-bus conflicts", p.Name, ar.Ctrl.BusConflicts)
	}
	return ar, nil
}

// PolicySpecs returns the standard evaluation matrix: the two baselines
// and the paper's three SMOREs design points.
func PolicySpecs(accesses int64, seed uint64, useLLC bool) []RunSpec {
	mk := func(pol memctrl.EncodingPolicy, sch core.Scheme) RunSpec {
		return RunSpec{Policy: pol, Scheme: sch, Accesses: accesses, Seed: seed, UseLLC: useLLC}
	}
	return []RunSpec{
		mk(memctrl.BaselineMTA, core.Scheme{}),
		mk(memctrl.OptimizedMTA, core.Scheme{}),
		mk(memctrl.SMOREs, core.Scheme{Specification: core.VariableCode, Detection: core.Exhaustive}),
		mk(memctrl.SMOREs, core.Scheme{Specification: core.StaticCode, Detection: core.Exhaustive}),
		mk(memctrl.SMOREs, core.Scheme{Specification: core.StaticCode, Detection: core.Conservative}),
	}
}

// FleetResult is the outcome of running every app under one spec.
type FleetResult struct {
	Spec    RunSpec
	Label   string
	Results []AppResult
}

// RunFleet simulates all 42 applications under one spec, sequentially.
// Use RunFleetApps for the worker-pool variant.
//
//smores:partialok documented partial-failure contract: completed app results are preserved alongside the lowest-indexed error
func RunFleet(spec RunSpec) (FleetResult, error) {
	return RunFleetApps(workload.Fleet(), spec, FleetOptions{Workers: 1})
}

// FleetOptions tunes a fleet run.
type FleetOptions struct {
	// Workers bounds concurrent app simulations. 0 selects GOMAXPROCS;
	// 1 runs sequentially with no goroutines (the benchmarked path).
	Workers int
	// Obs, when non-nil, registers per-worker fleet counters and scopes
	// every app's stack metrics with an app=<name> label (in addition to
	// any labels already on the spec).
	Obs *obs.Registry
	// Progress, when non-nil, is stepped once per completed app —
	// feeding the /progress telemetry endpoint's ETA.
	Progress *obs.Progress
}

// appSeed derives the per-app seed: it depends only on the spec seed and
// the app's fleet position, never on worker count or completion order,
// so parallel runs replay exactly the sequential traffic.
func appSeed(seed uint64, i int) uint64 { return DecorrelateSeed(seed, i) }

// fleetAppSpec builds the per-app spec: deterministic seed plus
// app-scoped observability labels when a registry is attached.
func fleetAppSpec(spec RunSpec, opts FleetOptions, i int, p workload.Profile) RunSpec {
	appSpec := spec
	appSpec.Seed = appSeed(spec.Seed, i)
	if opts.Obs != nil {
		appSpec.Obs = opts.Obs
		appSpec.ObsLabels = append(append([]obs.Label(nil), spec.ObsLabels...),
			obs.L("app", p.Name))
	}
	return appSpec
}

// RunFleetApps simulates every application of fleet (pass
// workload.Fleet() for all 42) under one spec on the shard worker pool.
// Every app runs, whatever the others do. Results are ordered by fleet
// position at every worker count; on error the lowest-indexed failure is
// reported, the successfully completed results are preserved in fleet
// order, and the label comes from the last successful result. An empty
// fleet yields an empty result, not a panic. The telemetry service's
// session runner submits arbitrary app lists (parsed from a RunSpecJSON)
// through it.
//
//smores:partialok documented partial-failure contract: completed app results are preserved alongside the lowest-indexed error
func RunFleetApps(fleet []workload.Profile, spec RunSpec, opts FleetOptions) (FleetResult, error) {
	workers := shard.Workers(opts.Workers, len(fleet))
	// One completion counter per pool worker; none on the sequential path.
	var done []*obs.Counter
	if workers > 1 && opts.Obs != nil {
		done = make([]*obs.Counter, workers)
		for w := range done {
			done[w] = opts.Obs.Counter("smores_fleet_worker_apps_total",
				"Apps completed, by fleet worker.", obs.L("worker", strconv.Itoa(w)))
		}
	}
	results := make([]AppResult, len(fleet))
	failed := make([]bool, len(fleet))
	err := shard.RunJobs(len(fleet), workers, func(w, i int) error {
		p := fleet[i]
		r, err := RunApp(p, fleetAppSpec(spec, opts, i, p))
		if done != nil {
			done[w].Inc()
		}
		opts.Progress.Step(1)
		if err != nil {
			failed[i] = true
			return fmt.Errorf("report: fleet app %d: %w", i, err)
		}
		results[i] = r
		return nil
	})
	// Compact the successes in place: copying them to a second slice
	// would allocate a fleet's worth of AppResults on every run.
	n := 0
	for i := range results {
		if !failed[i] {
			results[n] = results[i]
			n++
		}
	}
	clear(results[n:])
	fr := FleetResult{Spec: spec, Results: results[:n]}
	if n > 0 {
		fr.Label = results[n-1].Label
	}
	return fr, err
}

// MeanPerBit returns the fleet-average fJ/bit.
func (fr FleetResult) MeanPerBit() float64 {
	var xs []float64
	for _, r := range fr.Results {
		xs = append(xs, r.PerBit)
	}
	return stats.Mean(xs)
}

// AggregateGaps merges the per-app gap histograms (reads or writes). The
// aggregate is sized from the first result's histogram, so fleets run
// with a non-default memctrl.Config.GapHistBuckets aggregate correctly;
// a bucket-count mismatch between results surfaces as an error rather
// than a panic. An empty fleet yields an empty default-sized histogram.
func (fr FleetResult) AggregateGaps(reads bool) (*stats.Histogram, error) {
	pick := func(r AppResult) *stats.Histogram {
		if reads {
			return r.ReadGaps
		}
		return r.WriteGaps
	}
	buckets := 17
	if len(fr.Results) > 0 {
		buckets = pick(fr.Results[0]).Buckets()
	}
	agg := stats.NewHistogram(buckets)
	for i, r := range fr.Results {
		if err := agg.Merge(pick(r)); err != nil {
			return nil, fmt.Errorf("report: aggregating gaps of app %d (%s): %w",
				i, r.App.Name, err)
		}
	}
	return agg, nil
}
