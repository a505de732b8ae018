package report

// The multi-channel engine. The front-end epoch (generator + shared
// LLC) runs once and splits the workload into per-channel streams
// behind the sector-striping interleaver; each channel then replays its
// stream as an independent shard.Unit — controller + event-skipping
// single-channel driver — on the shard worker pool. The merge walks
// shards in channel order, so for a fixed seed the result is
// byte-identical at every worker count: stats, histograms, and profile
// cells (shard_test.go is the differential gate). A profiled shard
// tallies its attribution privately and hands the tally over when it
// finishes; the runner publishes the tallies in channel order.
// RunApp and RunFleetApps select this engine for more than one channel.

import (
	"fmt"
	"strings"

	"smores/internal/bus"
	"smores/internal/fault"
	"smores/internal/gpu"
	"smores/internal/obs"
	"smores/internal/shard"
	"smores/internal/workload"
)

// runSharded simulates p over the given channel count on the
// multi-channel engine: the front-end epoch on pl, then the channels'
// shards on a pool of the given size, merged in channel order. The
// shards replay pl's streams, so pl must not build again until this
// returns; nothing the result keeps points into the plan. Each shard
// that succeeds leaves its profile tally in tallies[channel] (when
// tallies is non-nil) as soon as it finishes, on its worker. On any
// error — construction, invariant violation, label disagreement — the
// zero AppResult is returned.
func runSharded(pl *shard.Planner, p workload.Profile, spec RunSpec, channels, workers int, tallies []*obs.Profile) (AppResult, error) {
	gen, err := workload.OpenGenerator(p, spec.Seed)
	if err != nil {
		return AppResult{}, err
	}
	plan, err := pl.Build(gen, channels, spec.Accesses, spec.llcConfig())
	if err != nil {
		return AppResult{}, err
	}
	if err := streamErr(p, gen); err != nil {
		return AppResult{}, err
	}
	units := make([]*shard.Unit, channels)
	injectors := make([]*fault.Injector, channels)
	// Each channel traces into a private ring of the shared tracer's
	// capacity, appended to the shared one in channel order once every
	// shard has run, so the trace does not depend on which shard
	// finishes first.
	var tracers []*obs.Tracer
	if spec.Tracer != nil {
		tracers = make([]*obs.Tracer, channels)
	}
	for ch := range units {
		chSpec := spec
		if tracers != nil {
			tracers[ch] = obs.NewTracer(spec.Tracer.Capacity())
			chSpec.Tracer = tracers[ch]
		}
		ctrl, in, err := chSpec.newController(ch)
		if err != nil {
			return AppResult{}, err
		}
		injectors[ch] = in
		// Each shard gets the app's MSHR count as its per-channel share,
		// so the app holds p.MSHRs × channels in total.
		if units[ch], err = shard.NewUnit(ch, ctrl, gpu.DriverConfig{MSHRs: p.MSHRs}, plan.Streams[ch]); err != nil {
			return AppResult{}, err
		}
	}
	err = shard.RunUnits(units, workers, func(u *shard.Unit) {
		if tallies != nil && u.Err() == nil {
			tallies[u.Channel] = u.Ctrl.DetachTally()
		}
	})
	for _, tr := range tracers {
		spec.Tracer.Append(tr)
	}
	if err != nil {
		return AppResult{}, err
	}

	ar := AppResult{
		App:        p,
		Label:      units[0].Ctrl.Describe(),
		Channels:   channels,
		PerChannel: make([]bus.Stats, channels),
		ReadGaps:   units[0].Ctrl.ReadGapHistogram(),
		WriteGaps:  units[0].Ctrl.WriteGapHistogram(),
		LLC:        plan.LLC,
	}
	for ch, u := range units {
		c, res := u.Ctrl, u.Result()
		if got := c.Describe(); got != ar.Label {
			return AppResult{}, fmt.Errorf("report: channel %d label %q disagrees with channel 0's %q", ch, got, ar.Label)
		}
		// Parallel channels: the run is as long as its slowest shard.
		ar.Clocks = max(ar.Clocks, res.Clocks)
		ar.Reads += res.DRAMReads
		ar.Writes += res.DRAMWrites
		ar.ReplayedReads += res.ReplayedReads
		ar.PerChannel[ch] = c.BusStats()
		ar.Bus.Merge(ar.PerChannel[ch])
		ar.Ctrl.Merge(c.Stats())
		if ch > 0 {
			if err := ar.ReadGaps.Merge(c.ReadGapHistogram()); err != nil {
				return AppResult{}, fmt.Errorf("report: merging channel %d read gaps: %w", ch, err)
			}
			if err := ar.WriteGaps.Merge(c.WriteGapHistogram()); err != nil {
				return AppResult{}, fmt.Errorf("report: merging channel %d write gaps: %w", ch, err)
			}
		}
		if in := injectors[ch]; in != nil {
			fs := in.Stats()
			if !fs.Conserves() {
				return AppResult{}, fmt.Errorf("report: %s channel %d: fault detection layers do not partition corrupted bursts: %v",
					p.Name, ch, fs)
			}
			ar.Fault.Add(fs)
		}
	}
	if err := ar.derive(); err != nil {
		return AppResult{}, err
	}
	return ar, nil
}

// ShardOptions is FleetOptions under its multi-channel name.
//
// Deprecated: use FleetOptions.
type ShardOptions = FleetOptions

// MultiFleetResult is FleetResult under its multi-channel name.
//
// Deprecated: use FleetResult, which holds any channel count.
type MultiFleetResult = FleetResult

// RunFleetAppsMultiChannel is RunFleetApps with spec.Channels set to
// channels.
//
// Deprecated: set RunSpec.Channels and call RunFleetApps.
//
//smores:partialok documented partial-failure contract: completed app results are preserved alongside the lowest-indexed error
func RunFleetAppsMultiChannel(fleet []workload.Profile, spec RunSpec, channels int, opts FleetOptions) (FleetResult, error) {
	spec.Channels = channels
	return RunFleetApps(fleet, spec, opts)
}

// RenderMultiChannelSummary formats per-scheme multi-channel fleets as a
// comparison table (the first fleet is the normalization baseline).
func RenderMultiChannelSummary(frs []FleetResult) string {
	var b strings.Builder
	if len(frs) == 0 {
		return ""
	}
	fmt.Fprintf(&b, "Multi-channel fleet comparison — %d channels × %d apps (sharded engine)\n",
		frs[0].Channels, len(frs[0].Results))
	fmt.Fprintf(&b, "  %-34s %12s %8s %12s %10s\n", "scheme", "fJ/bit", "saving", "mean clocks", "balance")
	base := frs[0].MeanPerBit()
	for _, fr := range frs {
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
