package memctrl

import (
	"fmt"
	"math/bits"

	"smores/internal/bus"
	"smores/internal/core"
	"smores/internal/gddr6x"
	"smores/internal/obs"
	"smores/internal/rng"
	"smores/internal/stats"
)

// Stats reports controller activity.
type Stats struct {
	Clock          int64
	ReadsServed    int64
	WritesServed   int64
	ReadLatencySum int64 // arrive → data decoded, reads only
	SparseReads    int64
	SparseWrites   int64
	// DecisionMismatches counts disagreements between the DRAM-side and
	// GPU-side codec decisions — the mechanism's invariant says zero.
	DecisionMismatches int64
	// BusConflicts counts data-slot overlaps — scheduling invariant, zero.
	// (Replay overruns are latency, not conflicts: the stretched
	// reservation holds later column commands back.)
	BusConflicts int64
	// Replays counts EDC-triggered retransmitted bursts; ReplayClocks is
	// the total command clocks they occupied (backoff + re-sent slots).
	Replays      int64
	ReplayClocks int64
	// ReplayFailures counts bursts still dirty after the retry budget.
	ReplayFailures int64
	// DegradedBursts counts payload bursts sent while the controller was
	// in the MTA-only graceful-degradation state (the burst would
	// otherwise have been eligible for a sparse code).
	DegradedBursts int64
	// MaxGapClocks is the largest idle span observed between transfers —
	// dominated by the refresh shadow (tRFC under REFab, tRFCpb-ish under
	// REFpb).
	MaxGapClocks int64
}

// Merge folds another controller's snapshot into s — the multi-channel
// roll-up path. Counters add; Clock and MaxGapClocks take the maximum,
// because sharded channels advance in parallel wall-clock (the merged
// Clock is the slowest shard's).
func (s *Stats) Merge(o Stats) {
	if o.Clock > s.Clock {
		s.Clock = o.Clock
	}
	s.ReadsServed += o.ReadsServed
	s.WritesServed += o.WritesServed
	s.ReadLatencySum += o.ReadLatencySum
	s.SparseReads += o.SparseReads
	s.SparseWrites += o.SparseWrites
	s.DecisionMismatches += o.DecisionMismatches
	s.BusConflicts += o.BusConflicts
	s.Replays += o.Replays
	s.ReplayClocks += o.ReplayClocks
	s.ReplayFailures += o.ReplayFailures
	s.DegradedBursts += o.DegradedBursts
	if o.MaxGapClocks > s.MaxGapClocks {
		s.MaxGapClocks = o.MaxGapClocks
	}
}

// AverageReadLatency returns the mean read latency in clocks (0 before
// any read is served); on merged statistics, the mean over every read.
func (s Stats) AverageReadLatency() float64 {
	if s.ReadsServed == 0 {
		return 0
	}
	return float64(s.ReadLatencySum) / float64(s.ReadsServed)
}

// Equal reports exact equality of two snapshots — the comparison the
// sequential vs. sharded differential gates use.
func (s Stats) Equal(o Stats) bool {
	return s.Clock == o.Clock &&
		s.ReadsServed == o.ReadsServed &&
		s.WritesServed == o.WritesServed &&
		s.ReadLatencySum == o.ReadLatencySum &&
		s.SparseReads == o.SparseReads &&
		s.SparseWrites == o.SparseWrites &&
		s.DecisionMismatches == o.DecisionMismatches &&
		s.BusConflicts == o.BusConflicts &&
		s.Replays == o.Replays &&
		s.ReplayClocks == o.ReplayClocks &&
		s.ReplayFailures == o.ReplayFailures &&
		s.DegradedBursts == o.DegradedBursts &&
		s.MaxGapClocks == o.MaxGapClocks
}

// Controller drives one GDDR6X channel. Not safe for concurrent use;
// advance it with Tick.
type Controller struct {
	cfg Config
	dev *gddr6x.Device
	ch  *bus.Channel

	clock  int64
	readQ  queue
	writeQ queue

	writeMode  bool
	refreshing bool
	// busReservedUntil is the clock through which the data bus is booked
	// (dense slots when undecided, stretched slots once a sparse length
	// commits). Column commands whose data would start earlier are held.
	busReservedUntil int64
	// cmdBusyTill models command-bus occupancy: GDDR6-style ACTIVATE
	// commands span two command clocks, so an ACT displaces the column
	// command that would have used the next slot — the paper's dominant
	// source of one-clock data-bus gaps.
	cmdBusyTill int64

	// pending is the most recently placed transfer (valid when hasPending);
	// its encoding may still be undecided and its trailing idle
	// unaccounted. Held by value so the steady-state tick path allocates
	// nothing per transfer.
	pending    xfer
	hasPending bool

	dramTracker core.GapTracker
	gpuTracker  core.GapTracker

	// EDC replay state (see replay.go). replay holds the defaulted config;
	// faultWin is the detected-rate ring buffer backing the graceful
	// degradation decision (nil when degradation is disabled), and
	// degraded is the MTA-only hysteresis state.
	replay       ReplayConfig
	faultWin     []bool
	faultWinIdx  int
	faultWinFill int
	faultWinHits int
	degraded     bool

	// payload generates random burst data in exact-data mode (encrypted
	// traffic is uniform random, so synthesized payloads are faithful).
	payload *rng.RNG
	buf     [bus.BurstBytes]byte

	completions []Request // sorted by Done; delivered ones are compacted out
	onReadDone  func(*Request)

	readGaps  *stats.Histogram
	writeGaps *stats.Histogram
	st        Stats

	// tr is the cycle-level tracer (nil disables emission; call sites
	// guard so the disabled path never constructs an event).
	tr     *obs.Tracer
	chanID int32
	// lastCodeLen/haveBurst track the codec class of the previous burst
	// for EvCodecSwitch trace instants.
	lastCodeLen int
	haveBurst   bool

	// noEventSkip pins Drain and the GPU driver to the per-clock tick loop
	// (see DisableEventSkip).
	noEventSkip bool
}

// xfer tracks one data transfer through decision and idle accounting.
// req carries its column command clock (IssuedAt), data slot (DataStart)
// and, once decided, its code length.
type xfer struct {
	req       Request
	decided   bool
	postamble bool
	accounted bool // trailing idle accounted
	// replayClocks is the bus time EDC replay traffic consumed right
	// after this transfer's slot (0 when the link is clean); the trailing
	// idle accounting subtracts it from the observed span.
	replayClocks int64
}

// New builds a controller.
func New(cfg Config) (*Controller, error) {
	c := new(Controller)
	if err := c.Reset(cfg); err != nil {
		return nil, err
	}
	return c, nil
}

// Reset rebuilds c for cfg exactly as New(cfg) would, so a caller that
// runs many simulations one after another can keep one controller. It
// keeps only storage: the queue slots, the completion list, the device's
// bank table, the channel's buffers and the gap histograms' buckets. The
// completion callback is cleared, and so is everything the previous
// configuration referenced (tracer, profile, fault hook). On error c is
// unchanged.
func (c *Controller) Reset(cfg Config) error {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return err
	}
	dev, ch, readGaps, writeGaps := c.dev, c.ch, c.readGaps, c.writeGaps
	if dev == nil {
		dev, ch = new(gddr6x.Device), new(bus.Channel)
		readGaps, writeGaps = new(stats.Histogram), new(stats.Histogram)
	}
	if err := dev.Reset(cfg.Timing); err != nil {
		return err
	}
	if cfg.Policy == OptimizedMTA {
		cfg.Bus.LevelShiftedIdle = true
	}
	if cfg.Fault != nil {
		cfg.Bus.Fault = cfg.Fault
	}
	ch.Reset(cfg.Bus)
	readGaps.Reset(cfg.GapHistBuckets)
	writeGaps.Reset(cfg.GapHistBuckets)
	*c = Controller{
		cfg:         cfg,
		dev:         dev,
		ch:          ch,
		readQ:       queue{slots: c.readQ.slots[:0]},
		writeQ:      queue{slots: c.writeQ.slots[:0]},
		completions: c.completions[:0],
		readGaps:    readGaps,
		writeGaps:   writeGaps,
		tr:          cfg.Tracer,
		chanID:      int32(cfg.Channel),
	}
	c.readQ.init(Read)
	c.writeQ.init(Write)
	if cfg.Bus.ExactData {
		c.payload = rng.New(0x5310_4E5)
	}
	if cfg.Fault != nil {
		c.replay = cfg.Replay.withDefaults()
		if c.replay.DegradeThreshold > 0 {
			c.faultWin = make([]bool, c.replay.DegradeWindow)
		}
	}
	return nil
}

// OnReadDone registers the completion callback (data fully arrived and
// decoded). Must be set before ticking if completions matter. The
// *Request passed to f points into the controller's completion list and
// is valid only until f returns; copy the value to keep it.
func (c *Controller) OnReadDone(f func(*Request)) { c.onReadDone = f }

// Clock returns the current command clock.
func (c *Controller) Clock() int64 { return c.clock }

// Stats returns a snapshot of controller statistics.
func (c *Controller) Stats() Stats { return c.st }

// BusStats returns the channel energy/occupancy statistics.
func (c *Controller) BusStats() bus.Stats { return c.ch.Stats() }

// DetachTally detaches the channel's energy attribution since the last
// detach and adds nothing to the profile (see bus.Channel.DetachTally).
// Config.Bus.Profile holds none of this controller's energy until the
// caller publishes it there: c.DetachTally().Publish(profile).
func (c *Controller) DetachTally() *obs.Profile { return c.ch.DetachTally() }

// BusEvents returns the recorded bus event sequence (empty unless
// Config.Bus.Record was set).
func (c *Controller) BusEvents() []bus.Event { return c.ch.Events() }

// ReadGapHistogram returns a snapshot of idle data-bus clocks observed
// after read transfers (Fig. 5a). The clone is independent of the
// controller: further ticks do not mutate it.
func (c *Controller) ReadGapHistogram() *stats.Histogram { return c.readGaps.Clone() }

// WriteGapHistogram returns a snapshot of idle clocks after write
// transfers (Fig. 5b); see ReadGapHistogram for aliasing guarantees.
func (c *Controller) WriteGapHistogram() *stats.Histogram { return c.writeGaps.Clone() }

// QueueLens returns the current read and write queue depths.
func (c *Controller) QueueLens() (reads, writes int) {
	return c.readQ.n, c.writeQ.n
}

// Enqueue offers a request; it reports false when the target queue is
// full (the caller must retry later — this is the backpressure path).
// The controller queues a copy of *r, filling in the copy's Addr and
// Arrive; the caller keeps ownership of r.
func (c *Controller) Enqueue(r *Request) bool {
	q, capacity := &c.readQ, c.cfg.ReadQueueCap
	switch r.Kind {
	case Read:
	case Write:
		q, capacity = &c.writeQ, c.cfg.WriteQueueCap
	default:
		panic("memctrl: unknown request kind")
	}
	if q.n >= capacity {
		return false
	}
	addr := c.cfg.Timing.MapSector(r.Sector)
	hits, oldMiss := q.hits, q.oldMiss
	q.push(r, addr, c.clock, c.dev.RowHit(addr))
	c.lowerHorizons(q, q.hits&^hits|q.oldMiss&^oldMiss)
	return true
}

// latency returns the command-to-data delay of a column command of kind
// k, including the codec pipeline ablation.
func (c *Controller) latency(k Kind) int64 {
	lat := c.cfg.Timing.RL
	if k == Write {
		lat = c.cfg.Timing.WL
	}
	return lat + c.cfg.ExtraCodecLatency
}

// decisionDeadline returns how long after a column command the encoding
// decision may wait for the next command before it must commit. It is at
// least BurstSlotClocks: the decision commits one clock past the
// deadline, and only from BurstSlotClocks+1 on is an idle clock after
// the dense slot certain, so a shorter deadline would commit as if no gap
// followed and skip the postamble.
func (c *Controller) decisionDeadline() int64 {
	// Exhaustive (and the baselines): the data must be encoded just
	// before it leaves at RL; leave a small encode margin.
	d := c.cfg.Timing.RL - 4
	if c.cfg.Policy == SMOREs && c.cfg.Scheme.Detection == core.Conservative {
		d = int64(c.cfg.Scheme.Window())
	}
	return max(d, core.BurstSlotClocks)
}

// Tick advances one command clock.
func (c *Controller) Tick() {
	if c.beginTick() {
		c.schedule()
	}
	c.clock++
}

// beginTick runs the part of a tick before FR-FCFS scheduling:
// completions, the pending decision deadline, refresh, and the
// read/write mode switch. It reports whether the scheduler may issue a
// column, ACTIVATE or PRECHARGE command this clock.
func (c *Controller) beginTick() bool {
	c.st.Clock = c.clock
	c.deliverCompletions()

	// Encoding decision deadline for the pending transfer: no follow-up
	// command has arrived, so both sides know the gap is at least the
	// deadline and commit on that basis (conservative detection instead
	// falls back to MTA here).
	if c.hasPending && !c.pending.decided && c.clock-c.pending.req.IssuedAt > c.decisionDeadline() {
		// The deadline fires one clock past it, so a follow-up command
		// would come at least deadline+1 clocks after this one.
		proxy := int(c.decisionDeadline()) + 1 - core.BurstSlotClocks
		c.decidePending(proxy, proxy, false, c.pending.req.Kind)
	}

	if c.dev.Busy(c.clock) {
		return false
	}

	if c.cfg.Refresh == PerBank {
		if c.issuePerBankRefresh() {
			return false
		}
	} else {
		if c.dev.RefreshDue(c.clock) {
			c.refreshing = true
		}
		// With no refresh-related command issuable this clock, fall
		// through so in-flight banks can finish their row cycles.
		if c.refreshing && c.issueForRefresh() {
			return false
		}
	}

	c.updateMode()
	return !c.refreshing && c.clock >= c.cmdBusyTill
}

// schedule issues at most one command and reports whether it did.
// Column commands claim their slot; activates and precharges use the
// free slots between them (tCCD leaves every other clock open). Because
// a GDDR6-style ACTIVATE spans two command clocks, an ACT started in a
// free slot spills into the next column slot and slips that transfer by
// one clock — the paper's §IV-A dominant source of one-clock data-bus
// gaps.
func (c *Controller) schedule() bool {
	return c.issueColumn() || c.issuePrep(c.activeQueue()) || c.issuePrep(c.inactiveQueue()) ||
		c.issueClosePage()
}

// Drain runs the controller until all queued and in-flight work has
// completed or maxClocks elapse; it returns false on timeout. No new
// requests arrive during a drain, so the inert clocks between events are
// skipped (unless DisableEventSkip pinned the per-clock loop).
func (c *Controller) Drain(maxClocks int64) bool {
	deadline := c.clock + maxClocks
	for (c.readQ.n > 0 || c.writeQ.n > 0 || len(c.completions) > 0) && c.clock < deadline {
		if !c.skipThenTick(deadline) {
			break
		}
	}
	// Let the final pending decision and completions flush. The legacy
	// loop ticked a fixed count; each Tick advances the clock by exactly
	// one, so the clock-targeted form is identical.
	target := c.clock + c.cfg.Timing.RL + int64(core.MaxSparseSymbols) + c.decisionDeadline() + 4
	if target > deadline {
		target = deadline
	}
	for c.clock < target {
		if !c.skipThenTick(target) {
			break
		}
	}
	return c.readQ.n == 0 && c.writeQ.n == 0 && len(c.completions) == 0
}

// skipThenTick advances to the next event (when skipping is enabled) and
// runs one Tick. It reports false when the skip alone reached limit, in
// which case no Tick ran.
func (c *Controller) skipThenTick(limit int64) bool {
	if !c.noEventSkip {
		if t := c.NextEventClock(); t > c.clock {
			if t > limit {
				t = limit
			}
			c.SkipTo(t)
			if c.clock >= limit {
				return false
			}
		}
	}
	c.Tick()
	return true
}

func (c *Controller) activeQueue() *queue {
	if c.writeMode {
		return &c.writeQ
	}
	return &c.readQ
}

func (c *Controller) inactiveQueue() *queue {
	if c.writeMode {
		return &c.readQ
	}
	return &c.writeQ
}

func (c *Controller) updateMode() { c.writeMode = c.nextWriteMode() }

// nextWriteMode returns the read/write mode updateMode sets for the
// current queue depths. Applied twice it changes nothing (WriteHi ≥ 1 >
// WriteLo is validated), so until a queue changes every tick that reaches
// the scheduler runs in this mode.
func (c *Controller) nextWriteMode() bool {
	reads, writes := c.readQ.n, c.writeQ.n
	if c.writeMode {
		return !(writes == 0 || (writes <= c.cfg.WriteLo && reads > 0))
	}
	return writes >= c.cfg.WriteHi || (reads == 0 && writes > 0)
}

// issueForRefresh closes banks and fires REFab. Returns true if it issued
// a command this clock.
func (c *Controller) issueForRefresh() bool {
	if c.dev.CanRefresh(c.clock) {
		if err := c.dev.Refresh(c.clock); err != nil {
			panic("memctrl: " + err.Error())
		}
		c.refreshing = false
		if c.tr != nil {
			c.tr.Emit(obs.TraceEvent{Cycle: c.clock, Dur: c.cfg.Timing.TRFC,
				Type: obs.EvREFab, Channel: c.chanID, Bank: -1})
		}
		return true
	}
	if m := c.dev.CanPrepMask(c.dev.OpenMask(), c.clock); m != 0 {
		c.precharge(bits.TrailingZeros64(m))
		return true
	}
	return false
}

// precharge closes bank b and keeps both queues' bank indexes and issue
// horizons exact. Every PRECHARGE the controller issues goes through here.
func (c *Controller) precharge(b int) {
	if err := c.dev.Precharge(b, c.clock); err != nil {
		panic("memctrl: " + err.Error())
	}
	bit := uint64(1) << uint(b)
	c.readQ.rowClosed(b)
	c.lowerHorizons(&c.readQ, bit)
	c.writeQ.rowClosed(b)
	c.lowerHorizons(&c.writeQ, bit)
	if c.tr != nil {
		c.tr.Emit(obs.TraceEvent{Cycle: c.clock, Dur: 1, Type: obs.EvPRE,
			Channel: c.chanID, Bank: int32(b)})
	}
}

// activate opens row in bank b and re-walks the bank in both queues'
// indexes. ACT is a two-clock command: it holds the command bus through
// the next clock.
func (c *Controller) activate(b int, row uint32) {
	if err := c.dev.Activate(b, row, c.clock); err != nil {
		panic("memctrl: " + err.Error())
	}
	c.cmdBusyTill = c.clock + 2
	bit := uint64(1) << uint(b)
	c.readQ.rowOpened(b, row)
	c.lowerHorizons(&c.readQ, bit)
	c.writeQ.rowOpened(b, row)
	c.lowerHorizons(&c.writeQ, bit)
	if c.tr != nil {
		c.tr.Emit(obs.TraceEvent{Cycle: c.clock, Dur: 2, Type: obs.EvACT,
			Channel: c.chanID, Bank: int32(b), Arg: int64(row)})
	}
}

// issueColumn issues the oldest legal READ/WRITE of the active queue
// (FR-FCFS: row hits are the only issuable requests, oldest first). Each
// bank's oldest hit is indexed, so the candidate is the oldest of those
// over the banks the device can serve now; below the queue's column
// horizon nothing can issue and no bank is asked.
func (c *Controller) issueColumn() bool {
	q := c.activeQueue()
	if c.clock < q.colAt {
		return false
	}
	write := q.kind == Write
	// A command whose data would start inside a booked slot is held (e.g.
	// a read stretched across a gap; write data is buffered).
	var ready uint64
	if c.clock+c.latency(q.kind) >= c.busReservedUntil {
		ready = c.dev.CanColumnMask(q.hits, write, c.clock)
	}
	if ready == 0 {
		q.colAt = c.columnReadyAt(q, q.hits)
		return false
	}
	s := q.oldest(&q.first, ready)
	r := &q.slots[s].req
	var err error
	if write {
		err = c.dev.Write(r.Addr, c.clock)
	} else {
		err = c.dev.Read(r.Addr, c.clock)
	}
	if err != nil {
		panic("memctrl: " + err.Error())
	}
	if c.tr != nil {
		ev := obs.EvRD
		if write {
			ev = obs.EvWR
		}
		c.tr.Emit(obs.TraceEvent{Cycle: c.clock, Dur: 1, Type: ev,
			Channel: c.chanID, Bank: int32(r.Addr.Bank), Arg: int64(r.Addr.Row)})
	}
	bank := r.Addr.Bank
	q.take(s)
	c.placeTransfer(r) // take leaves the freed slot intact until the next Enqueue
	// The served bank's next request may now be its oldest miss, and the
	// command moved the device's column gate: once tCCD_L no longer holds
	// the previous command's bank group, a bank there can be ready before
	// either queue's horizon. The gate bounds every bank from below.
	c.lowerHorizons(q, 1<<bank)
	for _, o := range [2]*queue{&c.readQ, &c.writeQ} {
		if g := c.dev.ColumnGateAt(o.kind == Write); g < o.colAt {
			o.colAt = g
		}
	}
	return true
}

// issuePrep issues one PRECHARGE or ACTIVATE needed by the queue, for the
// bank with the oldest request among the banks whose oldest request
// misses the open row and that the device can prepare now. Activates get
// command-bus priority over column commands at the call site ordering in
// Tick — per the paper, GPU controllers prioritize activates to sustain
// bank-level parallelism, and those stolen command slots are the dominant
// source of one-clock data-bus gaps.
func (c *Controller) issuePrep(q *queue) bool {
	if c.clock < q.prepAt {
		return false
	}
	ready := c.dev.CanPrepMask(q.oldMiss, c.clock)
	if ready == 0 {
		q.prepAt = orFar(c.dev.PrepReadyAtMask(q.oldMiss))
		return false
	}
	a := q.slots[q.oldest(&q.head, ready)].req.Addr
	if c.dev.NeedsPrecharge(a) {
		c.precharge(int(a.Bank))
	} else {
		c.activate(int(a.Bank), a.Row)
	}
	return true
}

// columnReadyAt returns the first clock at which a column command could
// issue to a bank of m (a subset of q.hits) for q, or farFuture when m is
// empty: the device's bound, held back while the command's data would
// start inside a booked slot.
func (c *Controller) columnReadyAt(q *queue, m uint64) int64 {
	t := c.dev.ColumnReadyAtMask(m, q.kind == Write)
	if t < 0 {
		return farFuture
	}
	if hold := c.busReservedUntil - c.latency(q.kind); hold > t {
		t = hold
	}
	return t
}

// lowerHorizons lowers q's issue horizons to the exact ready clocks of
// banks m after an event — an enqueue, ACTIVATE, PRECHARGE or column
// command touching them — that may have made one of them issuable before
// the horizons allow.
func (c *Controller) lowerHorizons(q *queue, m uint64) {
	if h := m & q.hits; h != 0 {
		if t := c.columnReadyAt(q, h); t < q.colAt {
			q.colAt = t
		}
	}
	if p := m & q.oldMiss; p != 0 {
		if t := c.dev.PrepReadyAtMask(p); t < q.prepAt {
			q.prepAt = t
		}
	}
}

// orFar maps a device query's "never by time alone" (-1) to farFuture.
func orFar(t int64) int64 {
	if t < 0 {
		return farFuture
	}
	return t
}

// issuePerBankRefresh services round-robin REFpb when due: close the
// target bank if needed, then refresh it. Other banks keep serving, so
// only a short single-bank shadow appears on the bus.
func (c *Controller) issuePerBankRefresh() bool {
	if !c.dev.PerBankRefreshDue(c.clock) {
		return false
	}
	b := c.dev.NextRefreshBank()
	if _, open := c.dev.OpenRow(b); open {
		if c.dev.CanPrecharge(b, c.clock) {
			c.precharge(b)
			return true
		}
		return false
	}
	if c.dev.CanRefreshBank(b, c.clock) {
		if err := c.dev.RefreshBank(b, c.clock); err != nil {
			panic("memctrl: " + err.Error())
		}
		if c.tr != nil {
			c.tr.Emit(obs.TraceEvent{Cycle: c.clock, Dur: c.cfg.Timing.TRFCPB,
				Type: obs.EvREFpb, Channel: c.chanID, Bank: int32(b)})
		}
		return true
	}
	return false
}

// issueClosePage implements the ClosedPage ablation: precharge any open
// bank whose row no queued request wants.
func (c *Controller) issueClosePage() bool {
	if c.cfg.Pages != ClosedPage {
		return false
	}
	wanted := c.readQ.hits | c.writeQ.hits
	if m := c.dev.CanPrepMask(c.dev.OpenMask()&^wanted, c.clock); m != 0 {
		c.precharge(bits.TrailingZeros64(m))
		return true
	}
	return false
}

// placeTransfer books the data slot for a just-issued column command,
// decides the previous pending transfer's encoding, accounts the idle
// span between them, and copies r into the pending transfer (the only
// copy of the request a column command makes).
func (c *Controller) placeTransfer(r *Request) {
	dataStart := c.clock + c.latency(r.Kind)

	// Both ends of the link observe every column command; the DRAM-side
	// and GPU-side trackers must always agree (verified in decidePending).
	gapDRAM := c.dramTracker.Observe(c.clock)
	gapGPU := c.gpuTracker.Observe(c.clock)

	if c.hasPending {
		if !c.pending.decided {
			delta := c.clock - c.pending.req.IssuedAt
			known := true
			if c.cfg.Policy == SMOREs && c.cfg.Scheme.Detection == core.Conservative {
				known = delta <= int64(c.cfg.Scheme.Window())
			}
			c.decidePending(gapDRAM, gapGPU, known, r.Kind)
		}
		if !c.pending.accounted {
			c.accountIdle(&c.pending, dataStart, r.Kind)
		}
	}
	p := &c.pending
	p.req = *r
	p.req.IssuedAt, p.req.DataStart = c.clock, dataStart
	p.decided, p.postamble, p.accounted, p.replayClocks = false, false, false, 0
	c.hasPending = true
	if end := dataStart + core.BurstSlotClocks; end > c.busReservedUntil {
		c.busReservedUntil = end
	}
	if c.tr != nil {
		c.tr.Emit(obs.TraceEvent{Cycle: c.clock, Type: obs.EvQueueDepth,
			Channel: c.chanID, Bank: -1,
			Arg: int64(c.readQ.n), Arg2: int64(c.writeQ.n)})
	}
}

// decidePending commits the pending transfer's encoding. gap is the idle
// clocks available after its dense slot as the DRAM-side tracker computed
// it; gpuGap is the same quantity from the GPU-side tracker; known is the
// conservative-window flag; nextKind is the kind of the upcoming transfer
// (sparse stretching is only applied between same-direction transfers —
// a direction switch has turnaround dead time instead of an exploitable
// gap).
func (c *Controller) decidePending(gap, gpuGap int, known bool, nextKind Kind) {
	p := &c.pending
	codeLen := 0
	if c.cfg.Policy == SMOREs && nextKind == p.req.Kind {
		if c.degraded {
			// Graceful degradation: the detected-error rate crossed the
			// threshold, so stay on the dense MTA code (shorter wire
			// exposure) until the rate recovers. Count the burst that
			// would otherwise have been sparse-eligible.
			c.st.DegradedBursts++
		} else {
			codeLen = c.cfg.Scheme.SelectLength(gap, known)
		}
	}
	// The other end of the link (GPU for reads, DRAM for writes) mirrors
	// the decision from its own tracker over the same command stream;
	// verify the mechanism's central invariant.
	if mirror := c.mirrorDecision(gpuGap, known, nextKind, p.req.Kind); mirror != codeLen {
		c.st.DecisionMismatches++
	}

	p.decided = true
	p.postamble = codeLen == 0 && gap > 0 && c.cfg.Policy != OptimizedMTA
	p.req.CodeLength = uint8(codeLen)
	if end := p.req.DataStart + int64(core.SlotClocks(codeLen)); end > c.busReservedUntil {
		c.busReservedUntil = end
	}

	var data []byte
	if c.payload != nil {
		c.payload.Fill(c.buf[:])
		data = c.buf[:]
	}
	if err := c.ch.SendBurst(data, codeLen); err != nil {
		panic("memctrl: " + err.Error())
	}
	// EDC replay: if the link-reliability hook detected an error on the
	// burst, retransmit it now. The replay traffic's clocks extend the bus
	// reservation (holding later column commands back) and the read's
	// completion time; accountIdle subtracts them from the trailing span.
	p.replayClocks = c.runReplay(p, data)
	if p.replayClocks > 0 {
		c.st.ReplayClocks += p.replayClocks
		if end := p.req.DataStart + int64(core.SlotClocks(codeLen)) + p.replayClocks; end > c.busReservedUntil {
			c.busReservedUntil = end
		}
	}
	if p.postamble {
		c.ch.Postamble()
	}

	if codeLen != 0 {
		if p.req.Kind == Read {
			c.st.SparseReads++
		} else {
			c.st.SparseWrites++
		}
	}

	if c.tr != nil {
		ev := obs.EvBurstMTA
		if codeLen != 0 {
			ev = obs.EvBurstSparse
		}
		c.tr.Emit(obs.TraceEvent{Cycle: p.req.DataStart,
			Dur: int64(core.SlotClocks(codeLen)), Type: ev,
			Channel: c.chanID, Bank: int32(p.req.Addr.Bank), Arg: int64(codeLen)})
		if p.postamble {
			c.tr.Emit(obs.TraceEvent{
				Cycle: p.req.DataStart + core.BurstSlotClocks, Dur: 1,
				Type: obs.EvPostamble, Channel: c.chanID, Bank: -1})
		}
		if c.haveBurst && (codeLen == 0) != (c.lastCodeLen == 0) {
			c.tr.Emit(obs.TraceEvent{Cycle: p.req.DataStart, Type: obs.EvCodecSwitch,
				Channel: c.chanID, Bank: -1,
				Arg: int64(c.lastCodeLen), Arg2: int64(codeLen)})
		}
	}
	c.lastCodeLen = codeLen
	c.haveBurst = true

	if p.req.Kind == Read {
		p.req.Done = p.req.DataStart + int64(core.SlotClocks(codeLen)) + p.replayClocks
		c.scheduleCompletion(&p.req)
	} else {
		c.st.WritesServed++
	}
}

// mirrorDecision recomputes the codec choice as the other end of the link
// would (GPU for reads, DRAM for writes), from the same observable
// command stream.
func (c *Controller) mirrorDecision(gap int, known bool, nextKind, kind Kind) int {
	if c.cfg.Policy != SMOREs || nextKind != kind {
		return 0
	}
	if c.degraded {
		// Both ends of the link observe the same EDC feedback stream, so
		// the MTA-only degradation state is mirrored without extra
		// signaling (see replay.go).
		return 0
	}
	return c.cfg.Scheme.SelectLength(gap, known)
}

// accountIdle charges the bus for the idle span between prev's slot and
// the next transfer's data start, and records the gap histograms.
func (c *Controller) accountIdle(prev *xfer, nextStart int64, nextKind Kind) {
	prev.accounted = true
	denseEnd := prev.req.DataStart + core.BurstSlotClocks
	span := nextStart - denseEnd
	if span < 0 {
		c.st.BusConflicts++
		return
	}
	used := int64(0)
	if prev.req.CodeLength > 0 {
		used = int64(prev.req.CodeLength) - core.BurstSlotClocks
	} else if prev.postamble {
		used = 1
	}
	if span > c.st.MaxGapClocks {
		c.st.MaxGapClocks = span
	}
	// Replay traffic occupied part of the trailing span; only the
	// remainder is genuinely idle. A negative remainder from replay alone
	// is latency (the stretched reservation held the next command back at
	// issue time), not a scheduling conflict.
	idle := span - used - prev.replayClocks
	if idle < 0 {
		if span-used < 0 {
			c.st.BusConflicts++
		}
		idle = 0
	}
	c.ch.Idle(idle * bus.UIsPerClock)
	if c.tr != nil && idle > 0 {
		c.tr.Emit(obs.TraceEvent{Cycle: denseEnd + used, Dur: idle,
			Type: obs.EvGap, Channel: c.chanID, Bank: -1, Arg: span})
		if c.cfg.Bus.LevelShiftedIdle || prev.req.CodeLength > 0 {
			// The line parks via a level-shifting seam instead of a driven
			// postamble (optimized-MTA idle or a sparse code's built-in
			// return to mid-level).
			c.tr.Emit(obs.TraceEvent{Cycle: denseEnd + used, Type: obs.EvSeam,
				Channel: c.chanID, Bank: -1})
		}
	}
	if prev.req.Kind == nextKind {
		if prev.req.Kind == Read {
			c.readGaps.Add(int(span))
		} else {
			c.writeGaps.Add(int(span))
		}
	}
}

// scheduleCompletion inserts a read into the completion list (kept sorted
// by Done; lists are short).
func (c *Controller) scheduleCompletion(r *Request) {
	i := len(c.completions)
	for i > 0 && c.completions[i-1].Done > r.Done {
		i--
	}
	c.completions = append(c.completions, Request{})
	copy(c.completions[i+1:], c.completions[i:])
	c.completions[i] = *r
}

// deliverCompletions hands every read due by now to the callback, then
// compacts the delivered entries out in place so the list's capacity is
// reused instead of leaking off its front.
func (c *Controller) deliverCompletions() {
	n := 0
	for ; n < len(c.completions) && c.completions[n].Done <= c.clock; n++ {
		r := &c.completions[n]
		c.st.ReadsServed++
		c.st.ReadLatencySum += r.Done - r.Arrive
		if c.onReadDone != nil {
			c.onReadDone(r)
		}
	}
	if n > 0 {
		c.completions = c.completions[:copy(c.completions, c.completions[n:])]
	}
}

// Finish decides any still-pending transfer (treating the bus as idle
// afterwards) and delivers outstanding completions. Call once after the
// workload ends.
func (c *Controller) Finish() {
	if c.hasPending && !c.pending.decided {
		// End of trace: an arbitrarily long gap follows.
		gap := int(c.decisionDeadline()) - core.BurstSlotClocks
		if gap < 1 {
			gap = 1
		}
		known := c.cfg.Policy != SMOREs || c.cfg.Scheme.Detection != core.Conservative
		c.decidePending(gap, gap, known, c.pending.req.Kind)
	}
	if len(c.completions) > 0 {
		c.clock = c.completions[len(c.completions)-1].Done + 1
		c.deliverCompletions()
	}
}

// AverageReadLatency returns mean read latency in clocks.
func (c *Controller) AverageReadLatency() float64 { return c.st.AverageReadLatency() }

// Describe summarizes the controller configuration for reports.
func (c *Controller) Describe() string {
	if c.cfg.Policy == SMOREs {
		return fmt.Sprintf("%v(%v)", c.cfg.Policy, c.cfg.Scheme)
	}
	return c.cfg.Policy.String()
}
