// Package shard turns the multi-channel memory system into
// shard-per-goroutine units, and holds the bounded worker pool every
// parallel runner shares (RunJobs). A multi-channel run splits into two
// epochs separated by the MSHR/LLC boundary:
//
//  1. Front-end epoch (Planner.Build): the workload generator and the
//     shared LLC run once, sequentially, producing one deterministic
//     DRAM-operation stream per channel behind the sector-striping
//     address interleaver (sector % channels picks the channel,
//     sector / channels is the channel-local address). LLC content
//     decisions depend only on access order, never on DRAM timing, so
//     this epoch is exact, not an approximation.
//
//  2. Shard epoch (Unit/RunUnits): each channel replays its stream
//     through its own controller + single-channel driver — a Unit —
//     with nothing shared between units. Units therefore run on any
//     number of goroutines and produce results that are byte-identical
//     to running them one at a time.
//
// Each shard is a channel(-pair) device with its own command queue and
// MSHR share, so there is no cross-channel MSHR contention (compute
// think time rides with the operation it precedes). What the package
// guarantees — and what the report-level differential tests enforce —
// is that for a fixed seed the results are bit-identical across every
// worker count, including the sequential one.
//
// A one-channel run of this engine differs from the one-channel engine
// (report.RunApp at one channel: the gpu.Driver with its inline LLC) in
// two ways, pinned by report.TestShardedSingleChannelMatchesRunAppTraffic:
//
//   - Without an LLC every statistic matches except timing at the end
//     of the stream: the unit's driver has no access budget, so it
//     spends one extra clock finding the stream's end (Clocks is
//     exactly +1; the controller's Clock is +1 or equal).
//   - With an LLC, traffic and data bits match but timing and energy
//     do not: the plan filters hits out before replay, so the driver
//     clock each LLC hit costs the single-channel runner never elapses.
package shard

import (
	"fmt"
	"runtime"
	"sync"

	"smores/internal/gpu"
	"smores/internal/memctrl"
)

// Plan holds the front-end epoch's output: one channel-local access
// stream per shard, plus the shared front-end statistics.
type Plan struct {
	// Channels is the shard count the plan was built for.
	Channels int
	// Streams[i] is channel i's operation stream in issue order, with
	// channel-local sector addresses.
	Streams [][]gpu.Access
	// Accesses counts the LLC-level accesses the front end consumed.
	Accesses int64
	// Reads and Writes count the DRAM-level operations emitted across
	// all streams (after LLC filtering when a cache was configured).
	Reads, Writes int64
	// LLC is the shared cache's statistics (zero value when the plan
	// was built without one).
	LLC gpu.LLCStats
}

// BuildPlan runs the front-end epoch into fresh storage: it is
// new(Planner).Build, so the plan stays valid for as long as the caller
// keeps it.
func BuildPlan(gen gpu.Generator, channels int, maxAccesses int64, llcCfg *gpu.LLCConfig) (*Plan, error) {
	return new(Planner).Build(gen, channels, maxAccesses, llcCfg)
}

// Planner runs front-end epochs into one front end that it keeps
// between builds: an LLC, emptied by Reset before each plan, and the
// per-channel stream buffers, truncated and refilled by each plan. A
// caller that builds many plans one after another (a fleet worker, one
// app at a time) thus allocates the cache and the streams once, not per
// plan. The zero value is ready to use; a Planner is not safe for
// concurrent use.
type Planner struct {
	plan   Plan
	llc    *gpu.LLC
	llcCfg gpu.LLCConfig // the configuration llc was built with
}

// Build runs the front-end epoch: it consumes maxAccesses accesses from
// gen, filters them through an optional shared LLC, and routes the
// resulting DRAM operations across channels by sector striping. The
// plan is a pure function of (generator stream, channels, llcCfg):
// building it twice, on one planner or two, yields identical streams.
//
// The returned plan, streams included, is the planner's own storage: it
// stays valid only until the planner's next Build, which overwrites it.
//
// Think (compute) clocks attach to the first DRAM operation emitted at
// or after the access that carried them, so no think time is lost even
// when LLC hits elide the operation itself.
func (pl *Planner) Build(gen gpu.Generator, channels int, maxAccesses int64, llcCfg *gpu.LLCConfig) (*Plan, error) {
	if gen == nil {
		return nil, fmt.Errorf("shard: plan needs a generator")
	}
	if channels < 1 {
		return nil, fmt.Errorf("shard: channel count must be positive, got %d", channels)
	}
	if maxAccesses <= 0 {
		return nil, fmt.Errorf("shard: plan needs a positive access budget (generators are endless)")
	}
	var llc *gpu.LLC
	if llcCfg != nil {
		if pl.llc == nil || pl.llcCfg != *llcCfg {
			l, err := gpu.NewLLC(*llcCfg)
			if err != nil {
				return nil, err
			}
			pl.llc, pl.llcCfg = l, *llcCfg
		} else {
			pl.llc.Reset()
		}
		llc = pl.llc
	}
	// Reslicing up to capacity reaches buffers an earlier, wider plan
	// grew, so a plan with fewer channels keeps them for the next one.
	streams := pl.plan.Streams
	if cap(streams) < channels {
		streams = append(streams[:cap(streams)], make([][]gpu.Access, channels-cap(streams))...)
	}
	streams = streams[:channels]
	for i := range streams {
		streams[i] = streams[i][:0]
	}
	pl.plan = Plan{Channels: channels, Streams: streams}
	p := &pl.plan
	var pendingThink int64
	emit := func(sector uint64, write bool) {
		ch := int(sector % uint64(channels))
		op := gpu.Access{Sector: sector / uint64(channels), Write: write, Think: pendingThink}
		pendingThink = 0
		p.Streams[ch] = append(p.Streams[ch], op)
		if write {
			p.Writes++
		} else {
			p.Reads++
		}
	}
	for p.Accesses < maxAccesses {
		a, ok := gen.Next()
		if !ok {
			break
		}
		p.Accesses++
		pendingThink += a.Think
		if llc == nil {
			emit(a.Sector, a.Write)
			continue
		}
		// Writebacks first, then the demand read — the order the
		// single-channel driver issues them in.
		needRead, wbs := llc.Access(a.Sector, a.Write)
		for _, wb := range wbs {
			emit(wb, true)
		}
		if needRead {
			emit(a.Sector, false)
		}
	}
	if llc != nil {
		p.LLC = llc.Stats()
	}
	return p, nil
}

// StreamGen replays a fixed operation stream; it implements
// gpu.Generator. The zero value is an exhausted stream.
type StreamGen struct {
	ops []gpu.Access
	i   int
}

// NewStreamGen builds a generator over ops. The slice is not copied, so
// it must not change until the replay ends: a plan's streams belong to
// the Planner that built them, and its next Build overwrites them.
func NewStreamGen(ops []gpu.Access) *StreamGen { return &StreamGen{ops: ops} }

// Next implements gpu.Generator.
func (g *StreamGen) Next() (gpu.Access, bool) {
	if g.i >= len(g.ops) {
		return gpu.Access{}, false
	}
	a := g.ops[g.i]
	g.i++
	return a, true
}

// Unit is one shard: a channel's controller plus the single-channel
// driver replaying that channel's stream. Units share no mutable state,
// so any scheduling of Run calls across goroutines yields identical
// results.
type Unit struct {
	// Channel is the shard's channel id (its position in the plan).
	Channel int
	// Ctrl is the shard's controller; after Run it holds the channel's
	// final bus statistics, gap histograms, and controller counters.
	Ctrl *memctrl.Controller

	drv    *gpu.Driver
	result gpu.RunResult
	err    error
	ran    bool
}

// NewUnit wires a shard from a new or just Reset controller, a driver
// configuration (MSHRs should be the per-channel share, not the pooled
// total), and the channel's planned stream. The unit owns the
// controller's completion callback; cfg.LLC must be nil — the shared
// cache already ran in the front-end epoch.
func NewUnit(channel int, ctrl *memctrl.Controller, cfg gpu.DriverConfig, stream []gpu.Access) (*Unit, error) {
	if cfg.LLC != nil {
		return nil, fmt.Errorf("shard: unit %d: the LLC belongs to the front-end epoch, not the shard", channel)
	}
	drv, err := gpu.NewDriver(cfg, ctrl, NewStreamGen(stream))
	if err != nil {
		return nil, fmt.Errorf("shard: unit %d: %w", channel, err)
	}
	return &Unit{Channel: channel, Ctrl: ctrl, drv: drv}, nil
}

// Run drives the shard to completion. It is called once per unit (by
// RunUnits or directly).
func (u *Unit) Run() error {
	u.result, u.err = u.drv.Run()
	u.ran = true
	if u.err != nil {
		u.err = fmt.Errorf("shard: unit %d: %w", u.Channel, u.err)
	}
	return u.err
}

// Result returns the shard's driver-side outcome (zero until Run).
func (u *Unit) Result() gpu.RunResult { return u.result }

// Err returns Run's error (nil until Run, or on success).
func (u *Unit) Err() error { return u.err }

// RunUnits executes every unit on the RunJobs pool. Every unit runs
// regardless of other units' failures (they are independent), and the
// returned error is the lowest-indexed unit's — the same error every
// worker count reports. onDone, when non-nil, is invoked after each
// unit finishes (possibly concurrently), on the worker that ran it and
// before that worker takes its next unit; the multi-channel engine takes
// each shard's profile tally there.
func RunUnits(units []*Unit, workers int, onDone func(*Unit)) error {
	return RunJobs(len(units), workers, func(_, i int) error {
		err := units[i].Run()
		if onDone != nil {
			onDone(units[i])
		}
		return err
	})
}

// Workers resolves a requested pool size for n jobs: requested ≤ 0
// selects GOMAXPROCS, and the result never exceeds n. RunJobs runs
// sequentially when it is at most 1.
func Workers(requested, n int) int {
	if requested <= 0 {
		requested = runtime.GOMAXPROCS(0)
	}
	return min(requested, n)
}

// RunJobs is the bounded worker pool behind every parallel runner: it
// calls job(worker, i) once for each i in [0, n) and returns the
// lowest-indexed job's error. Every job runs regardless of the others'
// failures, so that error is the same at every worker count. The pool
// has Workers(workers, n) workers. With at most one, the jobs run in
// index order on the calling goroutine (as worker 0) and no goroutine
// starts. Otherwise each pool goroutine (worker 0 … size−1) takes the
// next index, in ascending order, from an unbuffered channel, and
// finishes its job before taking another.
func RunJobs(n, workers int, job func(worker, i int) error) error {
	workers = Workers(workers, n)
	if workers <= 1 {
		var first error
		for i := 0; i < n; i++ {
			if err := job(0, i); err != nil && first == nil {
				first = err
			}
		}
		return first
	}
	errs := make([]error, n)
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range idx {
				errs[i] = job(w, i)
			}
		}(w)
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
