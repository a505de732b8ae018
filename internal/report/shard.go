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
	"smores/internal/gpu"
	"smores/internal/obs"
	"smores/internal/shard"
	"smores/internal/workload"
)

// runSharded simulates p over the given channel count on the
// multi-channel engine of stack st: the front-end epoch on its planner,
// then the channels' shards, each on the stack's controller for its
// channel, on a pool of the given size, merged in channel order. The
// shards replay the planner's streams; nothing the result keeps points
// into the plan or the controllers. Each shard that succeeds leaves its
// profile tally in tallies[channel] (when tallies is non-nil) as soon as
// it finishes, on its worker. On any error — construction or invariant
// violation — the zero AppResult is returned.
func runSharded(st *runStack, p workload.Profile, spec RunSpec, channels, workers int, tallies []*obs.Profile) (AppResult, error) {
	gen, err := workload.ReopenGenerator(&st.gen, p, spec.Seed)
	if err != nil {
		return AppResult{}, err
	}
	plan, err := st.planner.Build(gen, channels, spec.Accesses, spec.llcConfig())
	// The plan holds every access the shards replay: the generator is
	// done with.
	endErr := endStream(p, gen)
	if err != nil {
		return AppResult{}, err
	}
	if endErr != nil {
		return AppResult{}, endErr
	}
	units := st.units[:0]
	// Each channel traces into a private ring of the shared tracer's
	// capacity, appended to the shared one in channel order once every
	// shard has run, so the trace does not depend on which shard
	// finishes first.
	var tracers []*obs.Tracer
	if spec.Tracer != nil {
		tracers = make([]*obs.Tracer, channels)
	}
	for ch := 0; ch < channels; ch++ {
		chSpec := spec
		if tracers != nil {
			tracers[ch] = obs.NewTracer(spec.Tracer.Capacity())
			chSpec.Tracer = tracers[ch]
		}
		ctrl, err := st.controller(chSpec, ch)
		if err != nil {
			return AppResult{}, err
		}
		// Each shard gets the app's MSHR count as its per-channel share,
		// so the app holds p.MSHRs × channels in total.
		u := &st.chans[ch].unit
		if err := u.Reset(ch, ctrl, gpu.DriverConfig{MSHRs: p.MSHRs}, plan.Streams[ch]); err != nil {
			return AppResult{}, err
		}
		units = append(units, u)
	}
	st.units = units
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
		Channels:   channels,
		PerChannel: make([]bus.Stats, channels),
		LLC:        plan.LLC,
	}
	for ch, u := range units {
		if err := ar.addChannel(ch, u.Ctrl, u.Result(), st.injector(spec, ch)); err != nil {
			return AppResult{}, err
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
