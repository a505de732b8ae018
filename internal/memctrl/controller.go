package memctrl

import (
	"fmt"

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

	// m holds live obs instrument handles (all nil when Config.Obs is
	// unset; every method is nil-safe). tr is the cycle-level tracer (nil
	// disables emission; call sites guard so the disabled path never
	// constructs an event).
	m      ctrlMetrics
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
type xfer struct {
	req       Request
	cmdAt     int64
	dataStart int64
	kind      Kind
	decided   bool
	codeLen   int
	postamble bool
	accounted bool // trailing idle accounted
	// replayClocks is the bus time EDC replay traffic consumed right
	// after this transfer's slot (0 when the link is clean); the trailing
	// idle accounting subtracts it from the observed span.
	replayClocks int64
}

// New builds a controller.
func New(cfg Config) (*Controller, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	dev, err := gddr6x.NewDevice(cfg.Timing)
	if err != nil {
		return nil, err
	}
	if cfg.Policy == OptimizedMTA {
		cfg.Bus.LevelShiftedIdle = true
	}
	if cfg.Fault != nil {
		cfg.Bus.Fault = cfg.Fault
	}
	// Propagate observability into the owned submodules: the channel
	// registers its energy counters and the device its command counters
	// under the same label set as the controller's own series.
	if cfg.Obs != nil {
		cfg.Bus.Obs = cfg.Obs
		cfg.Bus.ObsLabels = cfg.ObsLabels
		dev.AttachMetrics(cfg.Obs, cfg.ObsLabels...)
	}
	c := &Controller{
		cfg:       cfg,
		dev:       dev,
		ch:        bus.New(cfg.Bus),
		readGaps:  stats.NewHistogram(cfg.GapHistBuckets),
		writeGaps: stats.NewHistogram(cfg.GapHistBuckets),
		m:         newCtrlMetrics(cfg.Obs, cfg.ObsLabels, cfg.GapHistBuckets),
		tr:        cfg.Tracer,
		chanID:    int32(cfg.Channel),
	}
	c.readQ.kind, c.writeQ.kind = Read, Write
	if cfg.Bus.ExactData {
		c.payload = rng.New(0x5310_4E5)
	}
	if cfg.Fault != nil {
		c.replay = cfg.Replay.withDefaults()
		if c.replay.DegradeThreshold > 0 {
			c.faultWin = make([]bool, c.replay.DegradeWindow)
		}
	}
	return c, nil
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

// PublishProfile adds the channel's energy attribution since the last
// publish to Config.Bus.Profile (see bus.Channel.PublishProfile). The
// profile holds none of this controller's energy until it is called.
func (c *Controller) PublishProfile() { c.ch.PublishProfile() }

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
	return len(c.readQ.reqs), len(c.writeQ.reqs)
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
	if len(q.reqs) >= capacity {
		return false
	}
	in := *r
	in.Addr = c.cfg.Timing.MapSector(in.Sector)
	in.Arrive = c.clock
	q.push(&in, c.dev.RowHit(in.Addr))
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
// decision may wait for the next command before it must commit.
func (c *Controller) decisionDeadline() int64 {
	if c.cfg.Policy == SMOREs && c.cfg.Scheme.Detection == core.Conservative {
		return int64(c.cfg.Scheme.Window())
	}
	// Exhaustive (and the baselines): the data must be encoded just
	// before it leaves at RL; leave a small encode margin.
	d := c.cfg.Timing.RL - 4
	if d < 1 {
		d = 1
	}
	return d
}

// Tick advances one command clock.
func (c *Controller) Tick() {
	if c.beginTick() {
		c.schedule()
	}
	c.clock++
}

// beginTick runs the part of a tick before FR-FCFS scheduling: gauges,
// completions, the pending decision deadline, refresh, and the
// read/write mode switch. It reports whether the scheduler may issue a
// column, ACTIVATE or PRECHARGE command this clock.
func (c *Controller) beginTick() bool {
	c.st.Clock = c.clock
	c.m.clock.Set(c.clock)
	c.m.readQ.Set(int64(len(c.readQ.reqs)))
	c.m.writeQ.Set(int64(len(c.writeQ.reqs)))
	c.deliverCompletions()

	// Encoding decision deadline for the pending transfer: no follow-up
	// command has arrived, so both sides know the gap is at least the
	// deadline and commit on that basis (conservative detection instead
	// falls back to MTA here).
	if c.hasPending && !c.pending.decided && c.clock-c.pending.cmdAt > c.decisionDeadline() {
		proxy := int(c.decisionDeadline()) - core.BurstSlotClocks
		c.decidePending(proxy, proxy, false, c.pending.kind)
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
	for (len(c.readQ.reqs) > 0 || len(c.writeQ.reqs) > 0 || len(c.completions) > 0) && c.clock < deadline {
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
	return len(c.readQ.reqs) == 0 && len(c.writeQ.reqs) == 0 && len(c.completions) == 0
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

func (c *Controller) updateMode() {
	reads, writes := len(c.readQ.reqs), len(c.writeQ.reqs)
	if c.writeMode {
		if writes == 0 || (writes <= c.cfg.WriteLo && reads > 0) {
			c.writeMode = false
		}
		return
	}
	if writes >= c.cfg.WriteHi || (reads == 0 && writes > 0) {
		c.writeMode = true
	}
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
	for b := 0; b < c.cfg.Timing.Banks; b++ {
		if c.dev.CanPrecharge(b, c.clock) {
			c.precharge(b)
			return true
		}
	}
	return false
}

// precharge closes bank b and keeps both queues' bank indexes exact.
// Every PRECHARGE the controller issues goes through here.
func (c *Controller) precharge(b int) {
	if err := c.dev.Precharge(b, c.clock); err != nil {
		panic("memctrl: " + err.Error())
	}
	c.readQ.rowClosed(b)
	c.writeQ.rowClosed(b)
	if c.tr != nil {
		c.tr.Emit(obs.TraceEvent{Cycle: c.clock, Dur: 1, Type: obs.EvPRE,
			Channel: c.chanID, Bank: int32(b)})
	}
}

// activate opens row in bank b and recounts the bank in both queues'
// indexes. ACT is a two-clock command: it holds the command bus through
// the next clock.
func (c *Controller) activate(b int, row uint32) {
	if err := c.dev.Activate(b, row, c.clock); err != nil {
		panic("memctrl: " + err.Error())
	}
	c.cmdBusyTill = c.clock + 2
	c.readQ.rowOpened(b, row)
	c.writeQ.rowOpened(b, row)
	if c.tr != nil {
		c.tr.Emit(obs.TraceEvent{Cycle: c.clock, Dur: 2, Type: obs.EvACT,
			Channel: c.chanID, Bank: int32(b), Arg: int64(row)})
	}
}

// issueColumn issues the first legal READ/WRITE from the active queue
// (FR-FCFS: the queue scan naturally prefers older requests; row hits are
// the only issuable ones). The bank index and the device-wide gates
// settle most clocks without touching a request.
func (c *Controller) issueColumn() bool {
	q := c.activeQueue()
	if q.hits == 0 {
		return false
	}
	write := q.kind == Write
	// Device-wide holds apply to every bank alike: the column gate, and a
	// booked data slot the command's data would start inside (e.g. a read
	// stretched across a gap; write data is buffered).
	if c.clock < c.dev.ColumnGateAt(write) || c.clock+c.latency(q.kind) < c.busReservedUntil {
		return false
	}
	for i := range q.reqs {
		r := &q.reqs[i]
		if q.hits&(1<<uint(r.Addr.Bank)) == 0 {
			continue
		}
		var err error
		if write {
			if !c.dev.CanWrite(r.Addr, c.clock) {
				continue
			}
			err = c.dev.Write(r.Addr, c.clock)
		} else {
			if !c.dev.CanRead(r.Addr, c.clock) {
				continue
			}
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
		req := *r
		q.remove(i)
		c.placeTransfer(&req)
		return true
	}
	return false
}

// issuePrep issues one PRECHARGE or ACTIVATE needed by the queue, oldest
// request first. Activates get command-bus priority over column commands
// at the call site ordering in Tick — per the paper, GPU controllers
// prioritize activates to sustain bank-level parallelism, and those stolen
// command slots are the dominant source of one-clock data-bus gaps.
func (c *Controller) issuePrep(q *queue) bool {
	// Banks holding a row miss that can take their command now: PRE for an
	// open bank (its row is the wrong one), ACT for a closed one.
	var ready uint64
	for m := q.miss; m != 0; {
		b := lowBank(&m)
		if _, open := c.dev.OpenRow(b); open {
			if c.dev.CanPrecharge(b, c.clock) {
				ready |= 1 << uint(b)
			}
		} else if c.dev.CanActivate(b, c.clock) {
			ready |= 1 << uint(b)
		}
	}
	if ready == 0 {
		return false
	}
	// The oldest request of each bank decides its prep: a bank whose oldest
	// request hits the open row is left alone.
	var seen uint64
	for i := range q.reqs {
		a := q.reqs[i].Addr
		bit := uint64(1) << uint(a.Bank)
		if ready&bit == 0 || seen&bit != 0 {
			continue
		}
		seen |= bit
		if c.dev.RowHit(a) {
			continue
		}
		if c.dev.NeedsPrecharge(a) {
			c.precharge(a.Bank)
		} else {
			c.activate(a.Bank, a.Row)
		}
		return true
	}
	return false
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
	for b := 0; b < c.cfg.Timing.Banks; b++ {
		if wanted&(1<<uint(b)) == 0 && c.dev.CanPrecharge(b, c.clock) {
			c.precharge(b)
			return true
		}
	}
	return false
}

// placeTransfer books the data slot for a just-issued column command,
// decides the previous pending transfer's encoding, and accounts the idle
// span between them.
func (c *Controller) placeTransfer(r *Request) {
	x := xfer{req: *r, cmdAt: c.clock, dataStart: c.clock + c.latency(r.Kind), kind: r.Kind}
	x.req.IssuedAt = c.clock
	x.req.DataStart = x.dataStart

	// Both ends of the link observe every column command; the DRAM-side
	// and GPU-side trackers must always agree (verified in decidePending).
	gapDRAM := c.dramTracker.Observe(c.clock)
	gapGPU := c.gpuTracker.Observe(c.clock)

	if c.hasPending {
		if !c.pending.decided {
			delta := c.clock - c.pending.cmdAt
			known := true
			if c.cfg.Policy == SMOREs && c.cfg.Scheme.Detection == core.Conservative {
				known = delta <= int64(c.cfg.Scheme.Window())
			}
			c.decidePending(gapDRAM, gapGPU, known, r.Kind)
		}
		if !c.pending.accounted {
			c.accountIdle(&c.pending, x.dataStart, x.kind)
		}
	}
	c.pending = x
	c.hasPending = true
	if end := x.dataStart + core.BurstSlotClocks; end > c.busReservedUntil {
		c.busReservedUntil = end
	}
	if c.tr != nil {
		c.tr.Emit(obs.TraceEvent{Cycle: c.clock, Type: obs.EvQueueDepth,
			Channel: c.chanID, Bank: -1,
			Arg: int64(len(c.readQ.reqs)), Arg2: int64(len(c.writeQ.reqs))})
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
	if c.cfg.Policy == SMOREs && nextKind == p.kind {
		if c.degraded {
			// Graceful degradation: the detected-error rate crossed the
			// threshold, so stay on the dense MTA code (shorter wire
			// exposure) until the rate recovers. Count the burst that
			// would otherwise have been sparse-eligible.
			c.st.DegradedBursts++
			c.m.degradedBursts.Inc()
		} else {
			codeLen = c.cfg.Scheme.SelectLength(gap, known)
		}
	}
	// The other end of the link (GPU for reads, DRAM for writes) mirrors
	// the decision from its own tracker over the same command stream;
	// verify the mechanism's central invariant.
	if mirror := c.mirrorDecision(gpuGap, known, nextKind, p.kind); mirror != codeLen {
		c.st.DecisionMismatches++
		c.m.mismatches.Inc()
	}

	p.decided = true
	p.codeLen = codeLen
	p.postamble = codeLen == 0 && gap > 0 && c.cfg.Policy != OptimizedMTA
	p.req.CodeLength = codeLen
	if end := p.dataStart + int64(core.SlotClocks(codeLen)); end > c.busReservedUntil {
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
		if end := p.dataStart + int64(core.SlotClocks(codeLen)) + p.replayClocks; end > c.busReservedUntil {
			c.busReservedUntil = end
		}
	}
	if p.postamble {
		c.ch.Postamble()
	}

	if codeLen != 0 {
		if p.kind == Read {
			c.st.SparseReads++
			c.m.sparseReads.Inc()
		} else {
			c.st.SparseWrites++
			c.m.sparseWrites.Inc()
		}
	}

	if c.tr != nil {
		ev := obs.EvBurstMTA
		if codeLen != 0 {
			ev = obs.EvBurstSparse
		}
		c.tr.Emit(obs.TraceEvent{Cycle: p.dataStart,
			Dur: int64(core.SlotClocks(codeLen)), Type: ev,
			Channel: c.chanID, Bank: int32(p.req.Addr.Bank), Arg: int64(codeLen)})
		if p.postamble {
			c.tr.Emit(obs.TraceEvent{
				Cycle: p.dataStart + core.BurstSlotClocks, Dur: 1,
				Type: obs.EvPostamble, Channel: c.chanID, Bank: -1})
		}
		if c.haveBurst && (codeLen == 0) != (c.lastCodeLen == 0) {
			c.tr.Emit(obs.TraceEvent{Cycle: p.dataStart, Type: obs.EvCodecSwitch,
				Channel: c.chanID, Bank: -1,
				Arg: int64(c.lastCodeLen), Arg2: int64(codeLen)})
		}
	}
	c.lastCodeLen = codeLen
	c.haveBurst = true

	if p.kind == Read {
		p.req.Done = p.dataStart + int64(core.SlotClocks(codeLen)) + p.replayClocks
		c.scheduleCompletion(&p.req)
	} else {
		c.st.WritesServed++
		c.m.writesServed.Inc()
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
	denseEnd := prev.dataStart + core.BurstSlotClocks
	span := nextStart - denseEnd
	if span < 0 {
		c.st.BusConflicts++
		c.m.conflicts.Inc()
		return
	}
	used := int64(0)
	if prev.codeLen > 0 {
		used = int64(prev.codeLen - core.BurstSlotClocks)
	} else if prev.postamble {
		used = 1
	}
	if span > c.st.MaxGapClocks {
		c.st.MaxGapClocks = span
	}
	c.m.maxGap.SetMax(span)
	// Replay traffic occupied part of the trailing span; only the
	// remainder is genuinely idle. A negative remainder from replay alone
	// is latency (the stretched reservation held the next command back at
	// issue time), not a scheduling conflict.
	idle := span - used - prev.replayClocks
	if idle < 0 {
		if span-used < 0 {
			c.st.BusConflicts++
			c.m.conflicts.Inc()
		}
		idle = 0
	}
	c.ch.Idle(idle * bus.UIsPerClock)
	if c.tr != nil && idle > 0 {
		c.tr.Emit(obs.TraceEvent{Cycle: denseEnd + used, Dur: idle,
			Type: obs.EvGap, Channel: c.chanID, Bank: -1, Arg: span})
		if c.cfg.Bus.LevelShiftedIdle || prev.codeLen > 0 {
			// The line parks via a level-shifting seam instead of a driven
			// postamble (optimized-MTA idle or a sparse code's built-in
			// return to mid-level).
			c.tr.Emit(obs.TraceEvent{Cycle: denseEnd + used, Type: obs.EvSeam,
				Channel: c.chanID, Bank: -1})
		}
	}
	if prev.kind == nextKind {
		if prev.kind == Read {
			c.readGaps.Add(int(span))
			c.m.readGaps.Observe(float64(span))
		} else {
			c.writeGaps.Add(int(span))
			c.m.writeGaps.Observe(float64(span))
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
		c.m.readsServed.Inc()
		c.m.readLatency.Add(r.Done - r.Arrive)
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
		c.decidePending(gap, gap, known, c.pending.kind)
	}
	if len(c.completions) > 0 {
		c.clock = c.completions[len(c.completions)-1].Done + 1
		c.deliverCompletions()
	}
}

// AverageReadLatency returns mean read latency in clocks.
func (c *Controller) AverageReadLatency() float64 {
	if c.st.ReadsServed == 0 {
		return 0
	}
	return float64(c.st.ReadLatencySum) / float64(c.st.ReadsServed)
}

// Describe summarizes the controller configuration for reports.
func (c *Controller) Describe() string {
	if c.cfg.Policy == SMOREs {
		return fmt.Sprintf("%v(%v)", c.cfg.Policy, c.cfg.Scheme)
	}
	return c.cfg.Policy.String()
}
