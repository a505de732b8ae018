package report

// The multi-channel engine. The front-end epoch (generator + shared
// LLC) runs once and splits the workload into per-channel streams
// behind the sector-striping interleaver; each channel then replays its
// stream as an independent shard.Unit — controller + event-skipping
// single-channel driver — on the shard worker pool. The merge walks
// shards in channel order, so for a fixed seed the result is
// byte-identical at every worker count: stats, histograms, and profile
// cells (shard_test.go is the differential gate).
// RunFleetAppsMultiChannel is the fleet scheduler on top: it streams the
// fleet one app per pool job — front-end epoch, shards in channel order,
// merge — so live memory is bounded by the worker count times one app,
// not by apps × channels.

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
	// Workers bounds concurrent shard simulations for one app, and
	// concurrent apps on the fleet path (RunFleetAppsMultiChannel runs
	// each app's shards on one worker). 0 selects GOMAXPROCS; 1 runs
	// sequentially with no goroutines. Results are identical for every
	// value (test-enforced).
	Workers int
	// Obs, when non-nil, registers each shard's stack counters scoped by
	// a channel=<id> label (plus app=<name> on the fleet path).
	Obs *obs.Registry
	// Progress, when non-nil, is stepped once per completed shard.
	Progress *obs.Progress
}

// appShards holds one application's planned shard units.
type appShards struct {
	app       workload.Profile
	plan      *shard.Plan
	units     []*shard.Unit
	injectors []*fault.Injector
	profiles  []*obs.Profile
}

// buildAppShards runs the front-end epoch for one app and wires its
// per-channel units. When spec.Profile is set, each shard gets a
// private profile, which its controller publishes into as soon as the
// shard has run (runUnits); the cells are added to spec.Profile later
// in channel order — concurrent shards must not race float additions
// into shared cells, or the totals would depend on scheduling.
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

// run executes the app's shards on a pool of the given size and folds
// them into a MultiResult in channel order. It also returns the
// non-empty cells of every shard's private profile, concatenated in
// channel order (none when the app is not profiled), so the caller can
// drop the dense profiles and add the cells to spec.Profile later. On
// any error the zero MultiResult and no cells are returned.
func (as *appShards) run(workers int, prog *obs.Progress) (MultiResult, []obs.ProfileCell, error) {
	if err := as.runUnits(workers, prog); err != nil {
		return MultiResult{}, nil, err
	}
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
		return MultiResult{}, nil, err
	}
	var cells []obs.ProfileCell
	for _, p := range as.profiles {
		cells = append(cells, p.Snapshot().Cells...)
	}
	return mr, cells, nil
}

// runUnits runs the app's shards on a pool of the given size. Each
// shard that succeeds publishes its attribution into its private
// profile as soon as it finishes, so the next shard on that worker
// reuses its tally.
func (as *appShards) runUnits(workers int, prog *obs.Progress) error {
	return shard.RunUnits(as.units, workers, func(u *shard.Unit) {
		if u.Err() == nil {
			u.Ctrl.PublishProfile()
		}
		prog.Step(1)
	})
}

// addCells adds profile cells to dst in slice order. Profile.Add, like
// Profile.Merge, adds energy only when it is positive and a count only
// when it is positive, so adding a shard profile's snapshot cells
// reproduces merging the dense profile bit for bit.
func addCells(dst *obs.Profile, cells []obs.ProfileCell) {
	for _, c := range cells {
		dst.Add(c.Phase, c.Codec, c.Wire, c.Level, c.Trans, c.FJ, c.Count)
	}
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
	mr, cells, err := as.run(opts.Workers, opts.Progress)
	if err != nil {
		return MultiResult{}, err
	}
	addCells(spec.Profile, cells)
	return mr, nil
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
// scheduler. Each app is one job on a bounded worker pool: the worker
// runs the app's front-end epoch and then its shards in channel order,
// and keeps only the merged MultiResult and the shards' non-empty
// profile cells, so live memory is bounded by opts.Workers × one app,
// not by apps × channels. Per-app seeds follow the fleet-position
// contract (appSeed), results are ordered by fleet position, and the
// cells are added to spec.Profile in (app, channel) order once every app
// has succeeded, so the whole result is byte-identical for every worker
// count. Every app runs, whatever the others do. On any error —
// including a shard invariant violation — the zero-value result is
// returned with the lowest-indexed app's failure, and nothing is added
// to spec.Profile.
func RunFleetAppsMultiChannel(fleet []workload.Profile, spec RunSpec, channels int, opts ShardOptions) (MultiFleetResult, error) {
	results := make([]MultiResult, len(fleet))
	cells := make([][]obs.ProfileCell, len(fleet))
	err := shard.RunJobs(len(fleet), opts.Workers, func(_, i int) error {
		p := fleet[i]
		appSpec := spec
		appSpec.Seed = appSeed(spec.Seed, i)
		if opts.Obs != nil {
			appSpec.ObsLabels = append(append([]obs.Label(nil), spec.ObsLabels...),
				obs.L("app", p.Name))
		}
		as, err := buildAppShards(p, appSpec, channels, opts)
		if err == nil {
			results[i], cells[i], err = as.run(1, opts.Progress)
		}
		if err != nil {
			return fmt.Errorf("report: fleet app %d: %w", i, err)
		}
		return nil
	})
	if err != nil {
		return MultiFleetResult{}, err
	}
	fr := MultiFleetResult{Spec: spec, Channels: channels, Results: results}
	for i, mr := range results {
		addCells(spec.Profile, cells[i])
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
