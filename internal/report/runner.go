// Package report is the evaluation harness: it runs workloads through the
// full stack (generator → LLC → controller → channel) under each encoding
// policy and produces the paper's tables and figures as formatted text.
package report

import (
	"fmt"
	"io"
	"math"
	"sync"

	"smores/internal/bus"
	"smores/internal/core"
	"smores/internal/fault"
	"smores/internal/floats"
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
	// Channels is the number of interleaved GDDR6X channels per app (the
	// RTX 3090 has 24); 0 means 1, and a negative count is an error. One
	// channel runs the gpu.Driver in front of one controller; more run the
	// multi-channel engine (shard.go). Every channel runs the same
	// encoding policy.
	Channels int
	// UseLLC interposes the 6 MB sectored cache.
	UseLLC bool
	// ExtraCodecLatency is the §V-A pipeline ablation.
	ExtraCodecLatency int64
	// Timing overrides the GDDR6X timing parameters (nil keeps defaults).
	Timing *gddr6x.Timing
	// Pages selects the row-buffer policy ablation.
	Pages memctrl.PagePolicy

	// ExactData puts real symbol streams on the wires (random payloads
	// standing in for encrypted traffic) instead of the expected-energy
	// fast path. Implied by Fault.
	ExactData bool
	// Fault, when non-nil, installs a link-reliability injector built
	// from this configuration on every channel of the run (a fresh
	// injector per channel and run — they are stateful). The injectors'
	// layered detection stats surface in AppResult.Fault.
	Fault *fault.Config
	// Replay tunes the EDC retransmission machinery (see
	// memctrl.ReplayConfig); only consulted when Fault is set.
	Replay memctrl.ReplayConfig

	// Tracer records cycle-level events for Chrome-trace export (nil
	// disables tracing); each channel is its own track. On several
	// channels each channel traces into a private ring of Tracer's
	// capacity, appended to Tracer in channel order when the run ends,
	// so the trace is the same at every worker count. Several apps of a
	// fleet sharing one Tracer interleave in the order they run.
	Tracer *obs.Tracer
	// Profile attributes every femtojoule of bus energy into the energy
	// profiler (phase × codec × wire × level × transition class). Each
	// channel tallies privately, and a run publishes its tallies into
	// Profile in channel order once it passes its checks; a failed run
	// adds nothing. Fleet runners publish their runs in fleet order, so
	// the cells are bit-identical at every worker count. The total
	// reconciles with the summed bus.Stats of every run that published.
	// Nil disables attribution.
	Profile *obs.Profile
}

// channels returns the spec's channel count: Channels, with 0 read as 1.
func (s RunSpec) channels() (int, error) {
	if s.Channels < 0 {
		return 0, fmt.Errorf("report: channel count must not be negative, got %d", s.Channels)
	}
	return max(s.Channels, 1), nil
}

// controllerConfig assembles channel ch's memctrl configuration; the
// channel id keeps trace tracks distinguishable.
func (s RunSpec) controllerConfig(ch int) memctrl.Config {
	cfg := memctrl.Config{
		Policy:            s.Policy,
		Scheme:            s.Scheme,
		Pages:             s.Pages,
		ExtraCodecLatency: s.ExtraCodecLatency,
		Tracer:            s.Tracer,
		Channel:           ch,
	}
	cfg.Bus.Profile = s.Profile
	cfg.Bus.ExactData = s.ExactData || s.Fault != nil
	cfg.Replay = s.Replay
	if s.Timing != nil {
		cfg.Timing = *s.Timing
	}
	return cfg
}

// runStack is one worker's simulation stack: the synthetic generator,
// the one-channel driver, the multi-channel front end, and per channel a
// controller, a fault injector and a shard unit, each Reset for every
// run it serves, so a worker builds and grows their storage once
// instead of per run. Runs on one stack must not overlap.
type runStack struct {
	gen     workload.Generator
	drv     gpu.Driver
	planner shard.Planner
	chans   []*channelStack
	units   []*shard.Unit // the current sharded run's units, in channel order
}

// channelStack is one channel's part of a runStack.
type channelStack struct {
	ctrl  memctrl.Controller
	fault fault.Injector
	unit  shard.Unit
}

// stacks pools runStacks across RunApp and RunFleetApps calls.
var stacks sync.Pool

// getStack takes a stack from the pool, or builds an empty one.
func getStack() *runStack {
	if st, ok := stacks.Get().(*runStack); ok {
		return st
	}
	return new(runStack)
}

// putStack returns st to the pool. Everything in it is Reset to the
// default configuration first, so a pooled stack keeps only storage:
// nothing a run referenced (its replay or the store behind it, tracer,
// profile, or a fault configuration's codecs) stays reachable through
// it. The zero configurations are valid, so these Resets cannot fail.
func putStack(st *runStack) {
	if len(st.chans) > 0 {
		_ = st.drv.Reset(gpu.DriverConfig{}, &st.chans[0].ctrl, nil)
	}
	for _, c := range st.chans {
		_ = c.unit.Reset(0, &c.ctrl, gpu.DriverConfig{}, nil)
		_ = c.fault.Reset(fault.Config{})
		_ = c.ctrl.Reset(memctrl.Config{})
	}
	stacks.Put(st)
}

// controller returns the stack's controller for channel ch, Reset for
// spec s. When s sets Fault, the channel's injector is Reset and
// installed on it (see injector), seeded DecorrelateSeed(Fault.Seed,
// ch), so the channels see independent error processes and channel 0
// keeps the configured seed.
func (st *runStack) controller(s RunSpec, ch int) (*memctrl.Controller, error) {
	for len(st.chans) <= ch {
		st.chans = append(st.chans, new(channelStack))
	}
	c := st.chans[ch]
	cfg := s.controllerConfig(ch)
	if s.Fault != nil {
		fc := *s.Fault
		fc.Seed = DecorrelateSeed(fc.Seed, ch)
		if err := c.fault.Reset(fc); err != nil {
			return nil, err
		}
		cfg.Fault = &c.fault
	}
	if err := c.ctrl.Reset(cfg); err != nil {
		return nil, err
	}
	return &c.ctrl, nil
}

// injector returns the fault injector of channel ch's last run under
// spec s, or nil when s runs a clean link.
func (st *runStack) injector(s RunSpec, ch int) *fault.Injector {
	if s.Fault == nil {
		return nil
	}
	return &st.chans[ch].fault
}

// llcConfig returns the cache configuration, nil without UseLLC.
func (s RunSpec) llcConfig() *gpu.LLCConfig {
	if !s.UseLLC {
		return nil
	}
	c := gpu.DefaultLLCConfig()
	return &c
}

// DefaultAccesses is the per-app run length used by the evaluation
// commands. Tests use smaller budgets.
const DefaultAccesses = 60000

// AppResult is one (application, policy) simulation outcome, over one
// channel or several, folded together by addChannel. Across channels,
// counts and energies are sums and histograms merge; Clocks, Ctrl.Clock
// and Ctrl.MaxGapClocks take the maximum (see memctrl.Stats.Merge).
type AppResult struct {
	App      workload.Profile
	Label    string
	Channels int
	PerBit   float64 // fJ per transferred data bit, total
	Bus      bus.Stats
	// PerChannel holds each channel's bus statistics in channel order;
	// Bus is their merge. It is nil on one channel.
	PerChannel []bus.Stats
	Ctrl       memctrl.Stats
	// ReadGaps and WriteGaps are idle-clock histograms (Fig. 5).
	ReadGaps  stats.Histogram
	WriteGaps stats.Histogram
	// LLC is the cache's statistics (zero value without UseLLC).
	LLC    gpu.LLCStats
	Clocks int64
	Reads  int64
	Writes int64
	// AvgReadLatency is in command clocks.
	AvgReadLatency float64
	// IdleFrequency is the fraction of transfers followed by any gap —
	// the paper sorts Fig. 8's applications by it.
	IdleFrequency float64
	// Fault holds the link-reliability injectors' layered detection
	// accounting (zero value when RunSpec.Fault was nil).
	Fault fault.Stats
	// ReplayedReads counts retransmissions observed on completed reads.
	ReplayedReads int64
}

// ChannelBalance returns the max/min ratio of per-channel transferred
// bits: 1.0 means perfectly balanced striping (including the degenerate
// all-channels-idle case), larger means skew. The two failure shapes
// are distinct sentinels rather than ambiguous zeros: NaN for a result
// without per-channel detail (a one-channel run keeps none), +Inf when
// at least one channel moved data while another moved none (infinitely
// imbalanced).
func (r AppResult) ChannelBalance() float64 {
	if len(r.PerChannel) == 0 {
		return math.NaN()
	}
	lo, hi := r.PerChannel[0].DataBits, r.PerChannel[0].DataBits
	for _, st := range r.PerChannel {
		lo, hi = min(lo, st.DataBits), max(hi, st.DataBits)
	}
	if floats.IsZero(hi) {
		return 1 // nothing moved anywhere: trivially balanced
	}
	if floats.IsZero(lo) {
		return math.Inf(1)
	}
	return hi / lo
}

// addChannel folds channel ch's finished run into r: its controller's
// bus, controller and gap statistics, its driver's result, and its fault
// injector's accounting (in is nil on a clean link), which must
// partition the corrupted bursts. Folding one channel into a zero r
// yields exactly that channel's values. Channel 0 names the result: every
// channel's controller is built from one controllerConfig, whose policy
// and scheme alone make up the label. When r.PerChannel is non-nil,
// PerChannel[ch] keeps the channel's bus statistics. On an error the
// caller must discard r.
func (r *AppResult) addChannel(ch int, ctrl *memctrl.Controller, res gpu.RunResult, in *fault.Injector) error {
	if in != nil {
		fs := in.Stats()
		if !fs.Conserves() {
			return fmt.Errorf("report: %s channel %d: fault detection layers do not partition corrupted bursts: %v",
				r.App.Name, ch, fs)
		}
		r.Fault.Add(fs)
	}
	if ch == 0 {
		r.Label = ctrl.Describe()
	}
	bs := ctrl.BusStats()
	if r.PerChannel != nil {
		r.PerChannel[ch] = bs
	}
	r.Bus.Merge(bs)
	r.Ctrl.Merge(ctrl.Stats())
	r.ReadGaps.Merge(ctrl.ReadGapHistogram())
	r.WriteGaps.Merge(ctrl.WriteGapHistogram())
	// Parallel channels: the run is as long as its slowest channel.
	r.Clocks = max(r.Clocks, res.Clocks)
	r.Reads += res.DRAMReads
	r.Writes += res.DRAMWrites
	r.ReplayedReads += res.ReplayedReads
	return nil
}

// derive sets the per-bit energy, read latency and idle frequency
// from the merged statistics and checks the controller invariants; on a
// violation the caller must discard r.
func (r *AppResult) derive() error {
	r.PerBit = r.Bus.PerBit()
	r.AvgReadLatency = r.Ctrl.AverageReadLatency()
	if t := r.ReadGaps.Total() + r.WriteGaps.Total(); t > 0 {
		gapped := float64(t) - float64(r.ReadGaps.Count(0)+r.WriteGaps.Count(0))
		r.IdleFrequency = gapped / float64(t)
	}
	if r.Ctrl.DecisionMismatches != 0 {
		return fmt.Errorf("report: %s: %d DRAM/GPU decision mismatches", r.App.Name, r.Ctrl.DecisionMismatches)
	}
	if r.Ctrl.BusConflicts != 0 {
		return fmt.Errorf("report: %s: %d data-bus conflicts", r.App.Name, r.Ctrl.BusConflicts)
	}
	return nil
}

// RunApp simulates one application under one spec, over spec.Channels
// channels, on the calling goroutine. The run opens its stream with
// workload.ReopenGenerator, so trace-backed fleet members replay their
// recorded stream (closed once the run has read it) while synthetic
// apps restart the worker stack's generator in place from the seed.
// spec.Accesses must be positive: synthetic generators never end. The
// run's energy attribution reaches spec.Profile only if it succeeds. A
// one-app RunFleetApps runs the same app with its channels spread over
// a worker pool.
func RunApp(p workload.Profile, spec RunSpec) (AppResult, error) {
	channels, err := spec.channels()
	if err != nil {
		return AppResult{}, err
	}
	st := getStack()
	pub := newFleetPublisher(spec.Profile, 1, channels)
	ar, err := runApp(st, p, spec, 1, pub.slots(0))
	pub.finish(0, err == nil)
	putStack(st)
	if err != nil {
		return AppResult{}, err
	}
	return ar, nil
}

// runApp is RunApp on the engine spec's channel count selects, on stack
// st and without the publish: one channel runs runDriver, more run
// runSharded with their shards on a pool of the given size. When tallies
// is non-nil (one slot per channel), a successful run leaves each
// channel's profile tally in its slot for the caller to publish.
func runApp(st *runStack, p workload.Profile, spec RunSpec, workers int, tallies []*obs.Profile) (AppResult, error) {
	if spec.Accesses <= 0 {
		return AppResult{}, fmt.Errorf("report: %s: run needs a positive access budget (generators are endless), got %d",
			p.Name, spec.Accesses)
	}
	channels, err := spec.channels()
	if err != nil {
		return AppResult{}, err
	}
	if channels == 1 {
		return runDriver(st, p, spec, tallies, false)
	}
	return runSharded(st, p, spec, channels, workers, tallies)
}

// runDriver is the one-channel engine: stack st's gpu.Driver, with its
// inline LLC, in front of the stack's channel-0 controller. The
// generator is closed once the driver has run (or failed to start). A
// successful run leaves its profile tally in tallies[0] when tallies is
// non-nil. perClock pins the controller and driver to the
// one-clock-at-a-time tick loop, the oracle TestEventSkipBitIdentical
// compares next-event skipping against.
func runDriver(st *runStack, p workload.Profile, spec RunSpec, tallies []*obs.Profile, perClock bool) (AppResult, error) {
	gen, err := workload.ReopenGenerator(&st.gen, p, spec.Seed)
	if err != nil {
		return AppResult{}, err
	}
	ctrl, err := st.controller(spec, 0)
	if err == nil {
		if perClock {
			ctrl.DisableEventSkip()
		}
		err = st.drv.Reset(gpu.DriverConfig{
			MSHRs:       p.MSHRs,
			MaxAccesses: spec.Accesses,
			LLC:         spec.llcConfig(),
		}, ctrl, gen)
	}
	if err != nil {
		_ = endStream(p, gen) // the run already failed
		return AppResult{}, err
	}
	res, err := st.drv.Run()
	endErr := endStream(p, gen)
	if err != nil {
		return AppResult{}, fmt.Errorf("report: %s under %s: %w", p.Name, ctrl.Describe(), err)
	}
	if endErr != nil {
		return AppResult{}, endErr
	}

	// Invariant violations return the zero AppResult: a populated result
	// must never ride alongside an error, or callers can accidentally
	// consume statistics the violation just invalidated.
	ar := AppResult{App: p, Channels: 1, LLC: res.LLC}
	if err := ar.addChannel(0, ctrl, res, st.injector(spec, 0)); err != nil {
		return AppResult{}, err
	}
	if err := ar.derive(); err != nil {
		return AppResult{}, err
	}
	if tallies != nil {
		tallies[0] = ctrl.DetachTally()
	}
	return ar, nil
}

// endStream closes gen once a run has read all it will of it, when gen
// holds resources (a trace-store replay is an io.Closer: it holds
// column files and pooled decode buffers until closed, also when the
// run's access budget stops it before the end of the store). It returns
// the error that ended the stream early, if gen can fail mid-stream (a
// replay stops at a bad block and keeps the error in Err): a run over a
// truncated stream must fail, not report on the accesses before the
// fault. Failing that, it returns the close's error.
func endStream(p workload.Profile, gen gpu.Generator) error {
	var closeErr error
	if c, ok := gen.(io.Closer); ok {
		closeErr = c.Close()
	}
	if g, ok := gen.(interface{ Err() error }); ok {
		if err := g.Err(); err != nil {
			return fmt.Errorf("report: %s: access stream ended on an error: %w", p.Name, err)
		}
	}
	if closeErr != nil {
		return fmt.Errorf("report: %s: closing the access stream: %w", p.Name, closeErr)
	}
	return nil
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

// FleetResult is the outcome of running every app of a fleet under one
// spec.
type FleetResult struct {
	Spec     RunSpec
	Channels int
	Label    string
	Results  []AppResult
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
	// Workers bounds concurrent simulations: apps, or a one-app fleet's
	// channels. 0 selects GOMAXPROCS; 1 runs sequentially with no
	// goroutines (the benchmarked path). Results are identical for every
	// value (test-enforced).
	Workers int
}

// appSeed derives the per-app seed: it depends only on the spec seed and
// the app's fleet position, never on worker count or completion order,
// so parallel runs replay exactly the sequential traffic.
func appSeed(seed uint64, i int) uint64 { return DecorrelateSeed(seed, i) }

// RunFleetApps simulates every application of fleet (pass
// workload.Fleet() for all 42) over spec.Channels channels on the shard
// worker pool. A fleet of several apps runs one app per worker, its
// channels in channel order on that worker, so live memory is bounded
// by the worker count times one app, not by apps × channels. A one-app
// fleet spreads its channels over the pool instead. Per-app seeds
// follow the fleet-position contract (appSeed), so app 0 runs with
// spec.Seed itself.
//
// Each worker runs its apps on one simulation stack, taken for the call
// from a package pool that RunApp shares: a synthetic generator, a
// one-channel driver (with its inline LLC's 1.2 MB once a run has used
// it), a multi-channel front end (a shard.Planner: about 1.2 MB of LLC
// plus the streams of the largest app it has run), and per channel a
// controller, a fault injector and a shard unit, each Reset for every
// run. A steady-state run therefore builds none of them. A replayed
// store member still opens its replay, which the run closes as soon as
// it has read what it needs: its column files close and its decode
// columns go back to the trace store's pool. The stacks go back to the
// pool when the call ends. Between calls a pooled stack keeps that
// storage reachable and nothing else: no result points into it, and no
// run's replay, store, tracer or profile stays reachable through it.
// The pool drops idle stacks at garbage collection.
//
// Every app runs, whatever the others do. Results are ordered by fleet
// position at every worker count; on error the lowest-indexed failure is
// reported, the successfully completed results are preserved in fleet
// order, and the label comes from the last successful result. An empty
// fleet yields an empty result, not a panic. Running every app and
// keeping the completed results makes the outcome, error included, the
// same at every worker count: a pool that stopped at its first failure
// would keep a scheduling-dependent subset.
//
// Successful runs publish their channel tallies into spec.Profile in
// (app, channel) order, so its cells are bit-identical at every worker
// count. A run that finishes before its predecessors keeps its tallies
// until they have published; whichever worker completes the finished
// prefix then publishes it, so no worker waits on another's run.
//
//smores:partialok documented partial-failure contract: completed app results are preserved alongside the lowest-indexed error
func RunFleetApps(fleet []workload.Profile, spec RunSpec, opts FleetOptions) (FleetResult, error) {
	channels, err := spec.channels()
	if err != nil {
		return FleetResult{}, err
	}
	appWorkers, shardWorkers := opts.Workers, 1
	if len(fleet) == 1 {
		appWorkers, shardWorkers = 1, opts.Workers
	}
	sts := make([]*runStack, shard.Workers(appWorkers, len(fleet)))
	for w := range sts {
		sts[w] = getStack()
	}
	results := make([]AppResult, len(fleet))
	pub := newFleetPublisher(spec.Profile, len(fleet), channels)
	err = shard.RunJobs(len(fleet), appWorkers, func(w, i int) error {
		appSpec := spec
		appSpec.Seed = appSeed(spec.Seed, i)
		r, err := runApp(sts[w], fleet[i], appSpec, shardWorkers, pub.slots(i))
		pub.finish(i, err == nil)
		if err != nil {
			return fmt.Errorf("report: fleet app %d: %w", i, err)
		}
		results[i] = r
		return nil
	})
	for _, st := range sts {
		putStack(st)
	}
	// Compact the successes in place: copying them to a second slice
	// would allocate a fleet's worth of AppResults on every run.
	n := 0
	for i := range results {
		if pub.state[i] == appDone {
			results[n] = results[i]
			n++
		}
	}
	clear(results[n:])
	fr := FleetResult{Spec: spec, Channels: channels, Results: results[:n]}
	if n > 0 {
		fr.Label = results[n-1].Label
	}
	return fr, err
}

// Fleet-publisher app states.
const (
	appRunning = iota
	appDone
	appFailed
)

// fleetPublisher publishes a fleet's channel tallies into the shared
// profile in (app, channel) order, whatever order the apps finish in.
// It allocates its per-app storage once per fleet, and none for the
// tallies when the fleet is not profiled.
type fleetPublisher struct {
	prof     *obs.Profile
	channels int
	mu       sync.Mutex
	state    []uint8
	tallies  []*obs.Profile // per (app, channel); a finished app's wait here for its predecessors
	next     int            // first app not yet published
}

func newFleetPublisher(prof *obs.Profile, apps, channels int) *fleetPublisher {
	fp := &fleetPublisher{prof: prof, channels: channels, state: make([]uint8, apps)}
	if prof != nil {
		fp.tallies = make([]*obs.Profile, apps*channels)
	}
	return fp
}

// slots returns app i's tally slots, one per channel (nil when the fleet
// is not profiled). Only the run of app i writes them, before finish.
func (fp *fleetPublisher) slots(i int) []*obs.Profile {
	if fp.tallies == nil {
		return nil
	}
	return fp.tallies[i*fp.channels : (i+1)*fp.channels]
}

// finish records app i as finished, successfully or not, and publishes
// the longest finished prefix not yet published. A failed app's tallies
// go back to their pool unpublished.
func (fp *fleetPublisher) finish(i int, ok bool) {
	fp.mu.Lock()
	defer fp.mu.Unlock()
	fp.state[i] = appFailed
	if ok {
		fp.state[i] = appDone
	}
	for ; fp.next < len(fp.state) && fp.state[fp.next] != appRunning; fp.next++ {
		prof := fp.prof
		if fp.state[fp.next] == appFailed {
			prof = nil
		}
		slots := fp.slots(fp.next)
		for ch, t := range slots {
			t.Publish(prof)
			slots[ch] = nil
		}
	}
}

// MeanPerBit returns the fleet-average fJ/bit.
func (fr FleetResult) MeanPerBit() float64 {
	var xs []float64
	for _, r := range fr.Results {
		xs = append(xs, r.PerBit)
	}
	return stats.Mean(xs)
}

// MeanClocks returns the fleet-average run length in clocks.
func (fr FleetResult) MeanClocks() float64 {
	if len(fr.Results) == 0 {
		return 0
	}
	var sum int64
	for _, r := range fr.Results {
		sum += r.Clocks
	}
	return float64(sum) / float64(len(fr.Results))
}

// AggregateGaps merges the per-app gap histograms (reads or writes); an
// empty fleet yields an empty histogram.
func (fr FleetResult) AggregateGaps(reads bool) stats.Histogram {
	var agg stats.Histogram
	for _, r := range fr.Results {
		if reads {
			agg.Merge(r.ReadGaps)
		} else {
			agg.Merge(r.WriteGaps)
		}
	}
	return agg
}
