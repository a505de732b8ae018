package gpu

import (
	"fmt"

	"smores/internal/memctrl"
)

// Access is one memory operation offered by a workload: a 32-byte sector
// touch, preceded by Think idle clocks of compute.
type Access struct {
	Sector uint64
	Write  bool
	Think  int64
}

// Generator produces a workload's access stream. Implementations live in
// the workload package; the driver only needs the stream.
type Generator interface {
	// Next returns the next access. ok is false when the workload ends.
	Next() (a Access, ok bool)
}

// DriverConfig assembles a Driver.
type DriverConfig struct {
	// MSHRs bounds outstanding DRAM reads (miss-status holding
	// registers); the driver stalls when they are exhausted — this is how
	// stretched sparse reads feed back into performance.
	MSHRs int
	// LLC configures the cache; nil bypasses the cache entirely (every
	// access goes to DRAM).
	LLC *LLCConfig
	// MaxAccesses bounds the run (0 = until the generator ends).
	MaxAccesses int64
	// MaxClocks aborts a wedged run.
	MaxClocks int64
}

// RunResult summarizes a driver run.
type RunResult struct {
	Accesses    int64
	DRAMReads   int64
	DRAMWrites  int64
	Clocks      int64
	StallClocks int64
	// ReplayedReads counts EDC-triggered retransmissions observed on
	// completed reads (0 on a clean link).
	ReplayedReads int64
	LLC           LLCStats
}

// Bandwidth returns achieved DRAM bytes per clock.
func (r RunResult) Bandwidth() float64 {
	if r.Clocks == 0 {
		return 0
	}
	return float64(r.DRAMReads+r.DRAMWrites) * 32 / float64(r.Clocks)
}

// Driver connects a workload generator, the LLC, and one channel's memory
// controller, advancing them in lockstep. The zero value becomes a
// driver through Reset. A driver must not be copied once built or
// Reset: it points into itself (llc at its inline cache, its completion
// callback at the driver), so a copy would drive the original's cache
// and counters. Its noCopy marker makes go vet's copylocks check flag
// copies, also of structs that hold a Driver by value.
type Driver struct {
	_   noCopy
	cfg DriverConfig
	// llc is the inline cache, &cache, or nil when the driver bypasses
	// it.
	llc  *LLC
	ctrl *memctrl.Controller
	gen  Generator

	inflight  int
	pendingWB []uint64
	// pendingRd is a backpressured read miss (valid when hasPendingRd) and
	// nextAccess the access waiting out its think time (valid when
	// hasNext). Both are held by value so the per-access path allocates
	// nothing.
	pendingRd    memctrl.Request
	hasPendingRd bool
	nextAccess   Access
	hasNext      bool
	thinkLeft    int64
	reqID        uint64
	res          RunResult

	// Storage kept across Resets, after the fields the run loop reads:
	// the inline cache's lines, whether or not llc points at them, and
	// the controller's completion callback, built once per driver so
	// that a Reset installs it without allocating.
	cache    LLC
	readDone func(*memctrl.Request)
}

// noCopy marks a struct that must not be copied: go vet's copylocks
// check flags copies of any value holding one, as it does sync.Mutex.
type noCopy struct{}

func (*noCopy) Lock()   {}
func (*noCopy) Unlock() {}

// NewDriver builds a driver. ctrl must be new or just Reset; the driver
// owns its completion callback. A nil gen is a workload that has ended.
func NewDriver(cfg DriverConfig, ctrl *memctrl.Controller, gen Generator) (*Driver, error) {
	d := new(Driver)
	if err := d.Reset(cfg, ctrl, gen); err != nil {
		return nil, err
	}
	return d, nil
}

// Reset rebuilds d to drive gen into ctrl under cfg exactly as
// NewDriver(cfg, ctrl, gen) would, so a runner that keeps one driver
// per worker restarts it for every run. It keeps only storage: the
// writeback buffer, the completion callback and the inline cache's
// lines, which a later cfg.LLC of at most the same size reuses. Nothing
// else of the previous run stays reachable: a Reset with a nil gen lets
// go of the last run's generator. On error d is unchanged.
func (d *Driver) Reset(cfg DriverConfig, ctrl *memctrl.Controller, gen Generator) error {
	if cfg.MSHRs <= 0 {
		cfg.MSHRs = 32
	}
	if cfg.MaxClocks <= 0 {
		cfg.MaxClocks = 1 << 32
	}
	cache := d.cache
	if cfg.LLC != nil {
		if err := cache.Reset(*cfg.LLC); err != nil {
			return err
		}
	}
	readDone := d.readDone
	if readDone == nil {
		readDone = func(r *memctrl.Request) {
			d.inflight--
			d.res.ReplayedReads += int64(r.Replayed)
		}
	}
	*d = Driver{cfg: cfg, cache: cache, ctrl: ctrl, gen: gen, readDone: readDone, pendingWB: d.pendingWB[:0]}
	if cfg.LLC != nil {
		d.llc = &d.cache
	}
	ctrl.OnReadDone(readDone)
	return nil
}

// Run drives the workload to completion and returns the result.
func (d *Driver) Run() (RunResult, error) {
	skip := d.ctrl.EventSkipEnabled()
	for {
		if d.cfg.MaxAccesses > 0 && d.res.Accesses >= d.cfg.MaxAccesses && d.drained() {
			break
		}
		if d.res.Clocks >= d.cfg.MaxClocks {
			return d.res, fmt.Errorf("gpu: run exceeded %d clocks", d.cfg.MaxClocks)
		}
		progressed := d.cycle(skip)
		if !progressed && d.inflight == 0 && !d.hasNext && !d.hasPendingRd &&
			len(d.pendingWB) == 0 && d.generatorDone() {
			break
		}
	}
	if !d.ctrl.Drain(1 << 22) {
		return d.res, fmt.Errorf("gpu: controller failed to drain")
	}
	d.ctrl.Finish()
	if d.llc != nil {
		d.res.LLC = d.llc.Stats()
	}
	return d.res, nil
}

// cycle runs one iteration of the run loop — a fast-forward across inert
// clocks when skip is set, then one driver step and one controller tick
// — and reports whether the step had work in flight.
func (d *Driver) cycle(skip bool) bool {
	if skip {
		d.fastForward()
	}
	progressed := d.step()
	d.ctrl.Tick()
	d.res.Clocks++
	return progressed
}

// fastForward advances the driver and its controller together across
// clocks that are provably inert on both sides: the driver is stalled
// (backpressure or exhausted MSHRs), burning think time, or waiting for
// in-flight reads to drain, and the controller reports no event before
// the skip target. Per-clock accounting (StallClocks) is applied for the
// skipped span exactly as the skipped iterations would have, so results
// are bit-identical to the legacy one-clock loop.
func (d *Driver) fastForward() {
	horizon, stall, think := d.idleHorizon()
	if horizon <= 0 {
		return
	}
	now := d.ctrl.Clock()
	target := d.ctrl.NextEventClock()
	if target <= now {
		return
	}
	n := target - now
	if n > horizon {
		n = horizon
	}
	// Never skip past the wedge detector: the legacy loop errors out at
	// exactly MaxClocks.
	if left := d.cfg.MaxClocks - d.res.Clocks; n > left {
		n = left
	}
	if n <= 0 {
		return
	}
	d.ctrl.SkipTo(now + n)
	d.res.Clocks += n
	if stall {
		d.res.StallClocks += n
	}
	if think {
		d.thinkLeft -= n // horizon ≤ thinkLeft in the think case
	}
}

// idleHorizon reports how many clocks step() would provably spend doing
// nothing but fixed per-clock accounting, whether each such clock counts
// as a stall, and whether it burns think time. Zero means "not skippable
// this clock". The horizon only bounds the driver side; the caller
// intersects it with the controller's next event.
func (d *Driver) idleHorizon() (n int64, stall, think bool) {
	const unbounded = int64(1) << 62
	if len(d.pendingWB) > 0 {
		// A backpressured writeback retries (and stalls) every clock until
		// the controller drains a write — a controller event.
		if d.ctrl.WriteQueueFull() {
			return unbounded, true, false
		}
		return 0, false, false
	}
	if d.hasPendingRd {
		// A backpressured read retries until an MSHR frees (a completion)
		// or the read queue drains (an issue) — both controller events.
		if d.inflight >= d.cfg.MSHRs || d.ctrl.ReadQueueFull() {
			return unbounded, true, false
		}
		return 0, false, false
	}
	if d.thinkLeft > 0 {
		return d.thinkLeft, false, true
	}
	if !d.hasNext && d.generatorDone() && d.inflight > 0 {
		// End-of-workload drain: only completions advance state.
		return unbounded, false, false
	}
	return 0, false, false
}

func (d *Driver) drained() bool {
	return d.inflight == 0 && !d.hasPendingRd && len(d.pendingWB) == 0
}

func (d *Driver) generatorDone() bool { return d.gen == nil }

// step advances the GPU by one clock; it reports whether any work was in
// flight.
func (d *Driver) step() bool {
	// Retry backpressured writebacks first (oldest data).
	if len(d.pendingWB) > 0 && !d.retryWritebacks() {
		d.res.StallClocks++
		return true
	}
	// Retry a backpressured read miss.
	if d.hasPendingRd {
		if d.inflight >= d.cfg.MSHRs || !d.ctrl.Enqueue(&d.pendingRd) {
			d.res.StallClocks++
			return true
		}
		d.inflight++
		d.res.DRAMReads++
		d.hasPendingRd = false
	}
	// Think time between accesses.
	if d.thinkLeft > 0 {
		d.thinkLeft--
		return true
	}
	// Pull the next access.
	if !d.hasNext {
		if d.gen == nil {
			return d.inflight > 0
		}
		if d.cfg.MaxAccesses > 0 && d.res.Accesses >= d.cfg.MaxAccesses {
			d.gen = nil
			return d.inflight > 0
		}
		a, ok := d.gen.Next()
		if !ok {
			d.gen = nil
			return d.inflight > 0
		}
		d.nextAccess, d.hasNext = a, true
		if a.Think > 0 {
			d.thinkLeft = a.Think
			return true
		}
	}
	// Issue the access through the LLC.
	a := d.nextAccess
	d.hasNext = false
	d.res.Accesses++
	if d.llc == nil {
		req := memctrl.Request{ID: d.reqID, Kind: memctrl.Read, Sector: a.Sector}
		if a.Write {
			req.Kind = memctrl.Write
		}
		d.reqID++
		if req.Kind == memctrl.Read {
			d.pendingRd, d.hasPendingRd = req, true
		} else if !d.ctrl.Enqueue(&req) {
			d.pendingWB = append(d.pendingWB, a.Sector)
		} else {
			d.res.DRAMWrites++
		}
		return true
	}
	needRead, wbs := d.llc.Access(a.Sector, a.Write)
	d.pendingWB = append(d.pendingWB, wbs...)
	if needRead {
		d.pendingRd = memctrl.Request{ID: d.reqID, Kind: memctrl.Read, Sector: a.Sector}
		d.hasPendingRd = true
		d.reqID++
	}
	return true
}

// retryWritebacks offers the backpressured writebacks to the controller
// oldest first and reports whether all were accepted. Accepted entries
// are compacted out in place, so the slice's capacity is reused instead
// of leaking off its front.
func (d *Driver) retryWritebacks() bool {
	n := 0
	for ; n < len(d.pendingWB); n++ {
		req := memctrl.Request{ID: d.reqID, Kind: memctrl.Write, Sector: d.pendingWB[n]}
		if !d.ctrl.Enqueue(&req) {
			break
		}
		d.reqID++
		d.res.DRAMWrites++
	}
	d.pendingWB = d.pendingWB[:copy(d.pendingWB, d.pendingWB[n:])]
	return len(d.pendingWB) == 0
}
