package report

// The multi-channel engine. The front-end epoch (generator + shared
// LLC) runs once and splits the workload into per-channel streams
// behind the sector-striping interleaver; each channel then replays its
// stream as an independent shard.Unit — controller + event-skipping
// single-channel driver — on the shard worker pool. The merge walks
// shards in channel order, so for a fixed seed the result is
// byte-identical at every worker count: stats, histograms, and profile
// cells (shard_test.go is the differential gate).
// RunFleetAppsMultiChannel is the fleet scheduler on top: it packs the
// shards of many applications onto one pool, which is what lets
// `smores-eval -channels N -j M` saturate any core count.

import (
	"fmt"
	"strconv"
	"strings"

	"smores/internal/fault"
	"smores/internal/gpu"
	"smores/internal/memctrl"
	"smores/internal/obs"
	"smores/internal/shard"
	"smores/internal/stats"
	"smores/internal/workload"
)

// ShardOptions tunes a sharded multi-channel run.
type ShardOptions struct {
	// Workers bounds concurrent shard simulations. 0 selects GOMAXPROCS;
	// 1 runs sequentially with no goroutines. Results are identical for
	// every value (test-enforced).
	Workers int
	// Obs, when non-nil, registers each shard's stack counters scoped by
	// a channel=<id> label (plus app=<name> on the fleet path).
	Obs *obs.Registry
	// Progress, when non-nil, is stepped once per completed shard.
	Progress *obs.Progress
}

// appShards holds one application's planned shard units before the
// pool runs them.
type appShards struct {
	app       workload.Profile
	plan      *shard.Plan
	units     []*shard.Unit
	injectors []*fault.Injector
	profiles  []*obs.Profile
}

// buildAppShards runs the front-end epoch for one app and wires its
// per-channel units. When spec.Profile is set, each shard gets a
// private profile (merged later in channel order — concurrent shards
// must not race float additions into shared cells, or the totals would
// depend on scheduling).
func buildAppShards(p workload.Profile, spec RunSpec, channels int, opts ShardOptions) (*appShards, error) {
	if channels < 1 {
		return nil, fmt.Errorf("report: channel count must be positive, got %d", channels)
	}
	gen, err := workload.OpenGenerator(p, spec.Seed)
	if err != nil {
		return nil, err
	}
	var llcCfg *gpu.LLCConfig
	if spec.UseLLC {
		c := gpu.DefaultLLCConfig()
		llcCfg = &c
	}
	plan, err := shard.BuildPlan(gen, channels, spec.Accesses, llcCfg)
	if err != nil {
		return nil, err
	}
	as := &appShards{
		app:       p,
		plan:      plan,
		units:     make([]*shard.Unit, channels),
		injectors: make([]*fault.Injector, channels),
		profiles:  make([]*obs.Profile, channels),
	}
	for i := range as.units {
		chSpec := channelSpec(spec, i)
		if opts.Obs != nil {
			chSpec.Obs = opts.Obs
			chSpec.ObsLabels = append(append([]obs.Label(nil), spec.ObsLabels...),
				obs.L("channel", strconv.Itoa(i)))
		}
		if spec.Profile != nil {
			as.profiles[i] = obs.NewProfile()
			chSpec.Profile = as.profiles[i]
		}
		in, err := chSpec.faultInjector()
		if err != nil {
			return nil, err
		}
		ccfg := chSpec.controllerConfig()
		if in != nil {
			ccfg.Fault = in
		}
		ctrl, err := memctrl.New(ccfg)
		if err != nil {
			return nil, err
		}
		as.injectors[i] = in
		// Each shard gets the app's MSHR count as its per-channel share,
		// so the app holds p.MSHRs × channels in total.
		dcfg := gpu.DriverConfig{
			MSHRs:     p.MSHRs,
			Obs:       chSpec.Obs,
			ObsLabels: chSpec.ObsLabels,
		}
		as.units[i], err = shard.NewUnit(i, ctrl, dcfg, plan.Streams[i])
		if err != nil {
			return nil, err
		}
	}
	return as, nil
}

// merge folds the app's completed shards into a MultiResult, merging
// per-shard profiles into dst (spec.Profile) in channel order. On any
// error the zero MultiResult is returned.
func (as *appShards) merge(dst *obs.Profile) (MultiResult, error) {
	mr := MultiResult{
		App:      as.app,
		Channels: as.plan.Channels,
		LLC:      as.plan.LLC,
	}
	ctrls := make([]*memctrl.Controller, len(as.units))
	for i, u := range as.units {
		ctrls[i] = u.Ctrl
		res := u.Result()
		mr.Reads += res.DRAMReads
		mr.Writes += res.DRAMWrites
		// Parallel channels: the run is as long as its slowest shard.
		if res.Clocks > mr.Clocks {
			mr.Clocks = res.Clocks
		}
	}
	if err := mergeChannels(&mr, ctrls, as.injectors); err != nil {
		return MultiResult{}, err
	}
	for _, p := range as.profiles {
		dst.Merge(p)
	}
	return mr, nil
}

// RunAppMultiChannel simulates one application over several
// interleaved GDDR6X channels (the RTX 3090 has 24). Sectors stripe
// round-robin across channels and every channel runs the same encoding
// policy. For a fixed seed the result — stats, histograms, profile
// cells — is byte-identical at every opts.Workers value; opts.Workers
// only changes wall-clock time. On any error — construction, invariant
// violation, label disagreement — the zero MultiResult is returned: a
// populated result never rides alongside an error.
func RunAppMultiChannel(p workload.Profile, spec RunSpec, channels int, opts ShardOptions) (MultiResult, error) {
	as, err := buildAppShards(p, spec, channels, opts)
	if err != nil {
		return MultiResult{}, err
	}
	if err := shard.RunUnits(as.units, opts.Workers, progressHook(opts.Progress)); err != nil {
		return MultiResult{}, err
	}
	return as.merge(spec.Profile)
}

// progressHook adapts an optional progress bar to the shard pool's
// completion callback.
func progressHook(prog *obs.Progress) func(*shard.Unit) {
	if prog == nil {
		return nil
	}
	return func(*shard.Unit) { prog.Step(1) }
}

// MultiFleetResult is the outcome of running every app of a fleet over
// multiple channels under one spec.
type MultiFleetResult struct {
	Spec     RunSpec
	Channels int
	Label    string
	Results  []MultiResult
}

// MeanPerBit returns the fleet-average fJ/bit.
func (fr MultiFleetResult) MeanPerBit() float64 {
	var xs []float64
	for _, r := range fr.Results {
		xs = append(xs, r.PerBit)
	}
	return stats.Mean(xs)
}

// MeanClocks returns the fleet-average run length in clocks.
func (fr MultiFleetResult) MeanClocks() float64 {
	if len(fr.Results) == 0 {
		return 0
	}
	var sum int64
	for _, r := range fr.Results {
		sum += r.Clocks
	}
	return float64(sum) / float64(len(fr.Results))
}

// RunFleetAppsMultiChannel runs every application of fleet (pass
// workload.Fleet() for all 42) over the given channel count — the fleet
// scheduler. Every app's front-end epoch runs first (sequential,
// deterministic, cheap); then one bounded worker pool packs all apps ×
// channels shard units, so a 42-app × 8-channel fleet offers 336
// independent jobs to the pool. Per-app seeds follow the fleet-position
// contract (appSeed), results are ordered by fleet position, and the
// whole result is byte-identical for every worker count. On any error —
// including a shard invariant violation — the zero-value result is
// returned with the lowest-indexed failure, never a partially merged
// fleet.
func RunFleetAppsMultiChannel(fleet []workload.Profile, spec RunSpec, channels int, opts ShardOptions) (MultiFleetResult, error) {
	fr := MultiFleetResult{Spec: spec, Channels: channels}
	apps := make([]*appShards, len(fleet))
	var pool []*shard.Unit
	for i, p := range fleet {
		appSpec := spec
		appSpec.Seed = appSeed(spec.Seed, i)
		if opts.Obs != nil {
			appSpec.ObsLabels = append(append([]obs.Label(nil), spec.ObsLabels...),
				obs.L("app", p.Name))
		}
		as, err := buildAppShards(p, appSpec, channels, opts)
		if err != nil {
			return MultiFleetResult{}, fmt.Errorf("report: fleet app %d: %w", i, err)
		}
		apps[i] = as
		pool = append(pool, as.units...)
	}
	if err := shard.RunUnits(pool, opts.Workers, progressHook(opts.Progress)); err != nil {
		// The pool preserves submission order, so the first failing unit
		// in `pool` is the lowest (app, channel) failure.
		for i, as := range apps {
			for _, u := range as.units {
				if u.Err() != nil {
					return MultiFleetResult{}, fmt.Errorf("report: fleet app %d: %w", i, u.Err())
				}
			}
		}
		return MultiFleetResult{}, err
	}
	for i, as := range apps {
		mr, err := as.merge(spec.Profile)
		if err != nil {
			return MultiFleetResult{}, fmt.Errorf("report: fleet app %d: %w", i, err)
		}
		fr.Results = append(fr.Results, mr)
		fr.Label = mr.Label
	}
	return fr, nil
}

// RenderMultiChannelSummary formats per-scheme multichannel fleets as a
// comparison table (the first fleet is the normalization baseline).
func RenderMultiChannelSummary(mfrs []MultiFleetResult) string {
	var b strings.Builder
	if len(mfrs) == 0 {
		return ""
	}
	fmt.Fprintf(&b, "Multi-channel fleet comparison — %d channels × %d apps (sharded engine)\n",
		mfrs[0].Channels, len(mfrs[0].Results))
	fmt.Fprintf(&b, "  %-34s %12s %8s %12s %10s\n", "scheme", "fJ/bit", "saving", "mean clocks", "balance")
	base := mfrs[0].MeanPerBit()
	for _, fr := range mfrs {
		perBit := fr.MeanPerBit()
		saving := 0.0
		if base > 0 {
			saving = (1 - perBit/base) * 100
		}
		worst := 1.0
		for _, r := range fr.Results {
			if bal := r.ChannelBalance(); bal > worst {
				worst = bal
			}
		}
		fmt.Fprintf(&b, "  %-34s %12.2f %7.2f%% %12.0f %10.3f\n",
			fr.Label, perBit, saving, fr.MeanClocks(), worst)
	}
	return b.String()
}
