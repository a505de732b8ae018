package memctrl

import (
	"cmp"
	"fmt"
	"slices"
	"testing"

	"smores/internal/core"
	"smores/internal/gddr6x"
)

// command is one scheduler decision: op is "" (nothing issued), "RD",
// "WR", "PRE" or "ACT"; id names the request a column command served.
type command struct {
	op   string
	bank int
	row  uint32
	id   uint64
}

// refSchedule is the linear-scan FR-FCFS scheduler the bank index
// replaced, kept as the oracle: it returns the command schedule would
// issue at the current clock, without issuing it. Its pieces run on the
// same state because schedule stops at the first that issues.
func refSchedule(c *Controller) command {
	if cmd, ok := refColumn(c); ok {
		return cmd
	}
	if cmd, ok := refPrep(c, c.activeQueue()); ok {
		return cmd
	}
	if cmd, ok := refPrep(c, c.inactiveQueue()); ok {
		return cmd
	}
	return refClosePage(c)
}

// queued returns q's requests in arrival order. It reads every slot not
// on the free list and sorts by stamp, so it does not depend on the
// per-bank lists the scheduler walks.
func queued(q *queue) []Request {
	free := make([]bool, len(q.slots))
	for s := q.free; s != noSlot; s = q.slots[s].next {
		free[s] = true
	}
	live := make([]int, 0, len(q.slots))
	for i := range q.slots {
		if !free[i] {
			live = append(live, i)
		}
	}
	slices.SortFunc(live, func(a, b int) int { return cmp.Compare(q.slots[a].stamp, q.slots[b].stamp) })
	reqs := make([]Request, len(live))
	for i, s := range live {
		reqs[i] = q.slots[s].req
	}
	return reqs
}

// refLatency recomputes the command-to-data delay independently of
// Controller.latency.
func refLatency(c *Controller, k Kind) int64 {
	if k == Write {
		return c.cfg.Timing.WL + c.cfg.ExtraCodecLatency
	}
	return c.cfg.Timing.RL + c.cfg.ExtraCodecLatency
}

func refColumn(c *Controller) (command, bool) {
	for _, r := range queued(c.activeQueue()) {
		ok, op := c.dev.CanRead(r.Addr, c.clock), "RD"
		if r.Kind == Write {
			ok, op = c.dev.CanWrite(r.Addr, c.clock), "WR"
		}
		if ok && c.clock+refLatency(c, r.Kind) >= c.busReservedUntil {
			return command{op: op, bank: int(r.Addr.Bank), row: r.Addr.Row, id: r.ID}, true
		}
	}
	return command{}, false
}

func refPrep(c *Controller, q *queue) (command, bool) {
	var prepped uint64
	for _, r := range queued(q) {
		bank := int(r.Addr.Bank)
		bit := uint64(1) << uint(bank)
		if prepped&bit != 0 {
			continue
		}
		prepped |= bit
		switch {
		case c.dev.RowHit(r.Addr):
		case c.dev.NeedsPrecharge(r.Addr):
			if c.dev.CanPrecharge(bank, c.clock) {
				row, _ := c.dev.OpenRow(bank)
				return command{op: "PRE", bank: bank, row: row}, true
			}
		case c.dev.CanActivate(bank, c.clock):
			return command{op: "ACT", bank: bank, row: r.Addr.Row}, true
		}
	}
	return command{}, false
}

func refClosePage(c *Controller) command {
	if c.cfg.Pages != ClosedPage {
		return command{}
	}
	for b := 0; b < c.cfg.Timing.Banks; b++ {
		row, open := c.dev.OpenRow(b)
		if !open || !c.dev.CanPrecharge(b, c.clock) {
			continue
		}
		if !wantedRow(queued(&c.readQ), queued(&c.writeQ), b, row) {
			return command{op: "PRE", bank: b, row: row}
		}
	}
	return command{}
}

// wantedRow reports whether a request of reads or writes targets row of
// bank b.
func wantedRow(reads, writes []Request, b int, row uint32) bool {
	for _, r := range append(reads[:len(reads):len(reads)], writes...) {
		if int(r.Addr.Bank) == b && r.Addr.Row == row {
			return true
		}
	}
	return false
}

// refColumnReadyAt is the per-request form of the first clock at which a
// column command for one of reqs could pass the device's and the data
// bus's checks (farFuture when none can by time alone).
func refColumnReadyAt(c *Controller, reqs []Request) int64 {
	next := farFuture
	for _, r := range reqs {
		if t := c.dev.ColumnReadyAt(r.Addr, r.Kind == Write); t >= 0 {
			if hold := c.busReservedUntil - refLatency(c, r.Kind); hold > t {
				t = hold
			}
			next = min(next, t)
		}
	}
	return next
}

// refPrepReadyAt is the per-request form of the first clock at which a
// queue holding reqs (oldest first) could have a bank prepared: a
// PRECHARGE or ACTIVATE for a bank whose oldest request misses its open
// row.
func refPrepReadyAt(c *Controller, reqs []Request) int64 {
	next := farFuture
	var seen uint64
	for _, r := range reqs {
		bank := int(r.Addr.Bank)
		bit := uint64(1) << uint(bank)
		if seen&bit != 0 {
			continue
		}
		seen |= bit
		switch {
		case c.dev.RowHit(r.Addr):
		case c.dev.NeedsPrecharge(r.Addr):
			next = min(next, c.dev.PrechargeReadyAt(bank))
		default:
			next = min(next, c.dev.ActivateReadyAt(bank))
		}
	}
	return next
}

// refNextIssueReady is the per-request form of nextIssueReady's contract:
// column commands of the queue the next scheduling tick runs, PRE/ACT for
// banks whose oldest request in either queue misses, and ClosedPage's
// idle precharges. The read/write mode rule is recomputed here.
func refNextIssueReady(c *Controller) int64 {
	rq, wq := queued(&c.readQ), queued(&c.writeQ)
	reads, writes := len(rq), len(wq)
	write := c.writeMode
	if write && (writes == 0 || writes <= c.cfg.WriteLo && reads > 0) {
		write = false
	} else if !write && (writes >= c.cfg.WriteHi || reads == 0 && writes > 0) {
		write = true
	}
	active := rq
	if write {
		active = wq
	}
	next := min(refColumnReadyAt(c, active), refPrepReadyAt(c, rq), refPrepReadyAt(c, wq))
	if c.cfg.Pages == ClosedPage {
		for b := 0; b < c.cfg.Timing.Banks; b++ {
			if row, open := c.dev.OpenRow(b); open && !wantedRow(rq, wq, b, row) {
				next = min(next, c.dev.PrechargeReadyAt(b))
			}
		}
	}
	return next
}

// deviceState is what a scheduled command can change on the device.
type deviceState struct {
	acts, reads, writes, pres, refs int64
	open                            [maxBanks]bool
	row                             [maxBanks]uint32
}

func snapshotDevice(c *Controller) deviceState {
	var s deviceState
	s.acts, s.reads, s.writes, s.pres, s.refs = c.dev.Counters()
	for b := 0; b < c.cfg.Timing.Banks; b++ {
		s.row[b], s.open[b] = c.dev.OpenRow(b)
	}
	return s
}

// issued reports the command schedule issued, from the device's counters
// and bank states before (b) and after the call.
func issued(c *Controller, b deviceState) command {
	a := snapshotDevice(c)
	switch {
	case a.reads > b.reads || a.writes > b.writes:
		op := "RD"
		if a.writes > b.writes {
			op = "WR"
		}
		r := c.pending.req
		return command{op: op, bank: int(r.Addr.Bank), row: r.Addr.Row, id: r.ID}
	case a.pres > b.pres || a.acts > b.acts:
		for bank := 0; bank < c.cfg.Timing.Banks; bank++ {
			switch {
			case b.open[bank] && !a.open[bank]:
				return command{op: "PRE", bank: bank, row: b.row[bank]}
			case !b.open[bank] && a.open[bank]:
				return command{op: "ACT", bank: bank, row: a.row[bank]}
			}
		}
	}
	return command{}
}

// checkIndex compares q's bank index with a recount from the queued
// requests and the device's open rows: each bank's list must hold exactly
// its requests, oldest first, with head, tail, first, the hit and
// oldest-miss masks and the queue depth to match. The issue horizons must
// not exceed the exact per-request bounds they stand for.
func checkIndex(c *Controller, q *queue) error {
	reqs := queued(q)
	if len(reqs) != q.n {
		return fmt.Errorf("%v queue holds %d requests, counts %d", q.kind, len(reqs), q.n)
	}
	var byBank [maxBanks][]uint64
	var hits, oldMiss uint64
	for _, r := range reqs {
		b := r.Addr.Bank
		hit := c.dev.RowHit(r.Addr)
		if len(byBank[b]) == 0 && !hit {
			oldMiss |= 1 << b
		}
		if hit {
			hits |= 1 << b
		}
		byBank[b] = append(byBank[b], r.ID)
	}
	if hits != q.hits || oldMiss != q.oldMiss {
		return fmt.Errorf("%v queue masks hits=%#x oldMiss=%#x, recount hits=%#x oldMiss=%#x",
			q.kind, q.hits, q.oldMiss, hits, oldMiss)
	}
	var list []uint64
	for b := 0; b < maxBanks; b++ {
		list = list[:0]
		first, tail := int16(noSlot), int16(noSlot)
		for s := q.head[b]; s != noSlot && len(list) <= len(reqs); s = q.slots[s].next {
			r := &q.slots[s].req
			if first == noSlot && c.dev.RowHit(r.Addr) {
				first = s
			}
			list, tail = append(list, r.ID), s
		}
		if !slices.Equal(list, byBank[b]) {
			return fmt.Errorf("%v queue bank %d list %v, arrival order %v", q.kind, b, list, byBank[b])
		}
		if tail != q.tail[b] || first != q.first[b] {
			return fmt.Errorf("%v queue bank %d tail/first %d/%d, recount %d/%d", q.kind, b, q.tail[b], q.first[b], tail, first)
		}
	}
	if t := refColumnReadyAt(c, reqs); q.colAt > t {
		return fmt.Errorf("%v queue column horizon %d above the exact bound %d", q.kind, q.colAt, t)
	}
	if t := refPrepReadyAt(c, reqs); q.prepAt > t {
		return fmt.Errorf("%v queue prep horizon %d above the exact bound %d", q.kind, q.prepAt, t)
	}
	return nil
}

// oracleTick is Tick with the scheduling step checked against
// refSchedule, followed by the index recount and the next-event checks.
// *quiet is the latest NextEventClock bound recorded since the last
// enqueue: a tick before it must issue no command, deliver no completion
// and commit no encoding decision. The caller resets it to 0 on enqueue.
func oracleTick(t testing.TB, c *Controller, quiet *int64) {
	t.Helper()
	inert := c.clock < *quiet
	dev, served := snapshotDevice(c), c.st.ReadsServed
	undecided := c.hasPending && !c.pending.decided
	if c.beginTick() {
		want := refSchedule(c)
		before := snapshotDevice(c)
		c.schedule()
		if got := issued(c, before); got != want {
			t.Fatalf("clock %d: scheduler issued %+v, linear scan would issue %+v", c.clock, got, want)
		}
	}
	c.clock++
	if inert && (snapshotDevice(c) != dev || c.st.ReadsServed != served || undecided && c.pending.decided) {
		t.Fatalf("clock %d: tick acted before the next-event bound %d", c.clock-1, *quiet)
	}
	for _, q := range []*queue{&c.readQ, &c.writeQ} {
		if err := checkIndex(c, q); err != nil {
			t.Fatalf("after clock %d: %v", c.clock-1, err)
		}
	}
	if got, want := c.nextIssueReady(), refNextIssueReady(c); got != want {
		t.Fatalf("after clock %d: nextIssueReady %d, per-request scan %d", c.clock-1, got, want)
	}
	*quiet = max(*quiet, c.NextEventClock())
}

// runOracle feeds arrivals to a controller built from cfg, ticking it one
// clock at a time through oracleTick until every request is served, and
// returns the number of read/write mode switches.
func runOracle(t testing.TB, cfg Config, arrivals []arrival) int {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var quiet int64
	switches := 0
	tick := func() {
		mode := c.writeMode
		oracleTick(t, c, &quiet)
		if c.writeMode != mode {
			switches++
		}
	}
	for i := 0; i < len(arrivals); {
		for i < len(arrivals) && arrivals[i].at <= c.Clock() && c.Enqueue(arrivals[i].req) {
			quiet = 0
			i++
		}
		tick()
	}
	for limit := c.Clock() + 1<<20; c.readQ.n+c.writeQ.n+len(c.completions) > 0; {
		if c.Clock() > limit {
			t.Fatal("drain timed out")
		}
		tick()
	}
	c.Finish()
	st := c.Stats()
	if st.ReadsServed+st.WritesServed != int64(len(arrivals)) {
		t.Fatalf("served %d reads + %d writes of %d requests", st.ReadsServed, st.WritesServed, len(arrivals))
	}
	return switches
}

// TestBankIndexMatchesLinearScan drives randomized bursty traffic one
// clock at a time and, after every tick, requires the bank index to equal
// a brute-force recount, the issued command to equal the linear-scan
// scheduler's choice, nextIssueReady to equal the per-request bound, and
// no tick before a recorded NextEventClock bound to act — across page
// policy × refresh mode × codec latency × encoding policy, with
// write-drain mode switches.
func TestBankIndexMatchesLinearScan(t *testing.T) {
	policies := []Config{
		{Policy: BaselineMTA},
		{Policy: OptimizedMTA},
		{Policy: SMOREs, Scheme: core.Scheme{Specification: core.VariableCode, Detection: core.Exhaustive}},
	}
	n := 1500
	if testing.Short() {
		n = 400
	}
	for _, pages := range []PagePolicy{OpenPage, ClosedPage} {
		for _, refresh := range []RefreshPolicy{AllBank, PerBank} {
			for _, lat := range []int64{0, 1} {
				for _, base := range policies {
					cfg := base
					cfg.Pages, cfg.Refresh, cfg.ExtraCodecLatency = pages, refresh, lat
					// Small queues reach the write-drain watermarks often.
					cfg.ReadQueueCap, cfg.WriteQueueCap, cfg.WriteHi, cfg.WriteLo = 12, 8, 6, 2
					name := fmt.Sprintf("%v/%v/%v/lat%d", cfg.Policy, pages, refresh, lat)
					t.Run(name, func(t *testing.T) {
						if switches := runOracle(t, cfg, randomArrivals(n, 7+uint64(lat))); switches < 2 {
							t.Fatalf("only %d read/write mode switches; the run must exercise write drains", switches)
						}
					})
				}
			}
		}
	}
}

// FuzzSchedulerMatchesLinearScan runs oracleTick's checks over a
// configuration and an arrival stream both taken from the input: the
// first bytes pick page policy, refresh mode, codec latency, encoding
// policy and small queue caps and watermarks (so write drains switch the
// mode often), the next nine seed the arrivals and set their count, and
// the last sets tCCD_L and tWTR: when tCCD_L exceeds tCCD + tWTR, a write
// can free the previous write's bank group for a queued read before the
// read queue's column horizon.
func FuzzSchedulerMatchesLinearScan(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 12, 8, 6, 2, 7, 0, 0, 0, 0, 0, 0, 0, 200})
	f.Add([]byte{1, 1, 1, 2, 4, 4, 3, 1, 42, 1, 0, 0, 0, 0, 0, 0, 100})
	f.Fuzz(func(t *testing.T, in []byte) {
		var b [18]byte
		copy(b[:], in)
		policies := []Config{
			{Policy: BaselineMTA},
			{Policy: OptimizedMTA},
			{Policy: SMOREs, Scheme: core.Scheme{Specification: core.VariableCode, Detection: core.Exhaustive}},
			{Policy: SMOREs, Scheme: core.Scheme{Specification: core.StaticCode, Detection: core.Conservative}},
		}
		cfg := policies[int(b[3])%len(policies)]
		cfg.Pages = PagePolicy(b[0] % 2)
		cfg.Refresh = RefreshPolicy(b[1] % 2)
		cfg.ExtraCodecLatency = int64(b[2] % 3)
		// Zero selects a default, so every draw is at least one.
		cfg.ReadQueueCap = 1 + int(b[4]%16)
		cfg.WriteQueueCap = 2 + int(b[5]%15)
		cfg.WriteHi = 2 + int(b[6])%(cfg.WriteQueueCap-1)
		cfg.WriteLo = 1 + int(b[7])%(cfg.WriteHi-1)
		cfg.Timing = gddr6x.DefaultTiming()
		cfg.Timing.TCCDL = cfg.Timing.TCCD + 1 + int64(b[17]%4)
		cfg.Timing.TWTR = 1 + int64(b[17]/4%8)
		seed := uint64(0)
		for _, x := range b[8:16] {
			seed = seed<<8 | uint64(x)
		}
		runOracle(t, cfg, randomArrivals(1+int(b[16]), seed))
	})
}
