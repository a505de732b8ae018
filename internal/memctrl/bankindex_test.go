package memctrl

import (
	"fmt"
	"testing"

	"smores/internal/core"
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

// refLatency recomputes the command-to-data delay independently of
// Controller.latency.
func refLatency(c *Controller, k Kind) int64 {
	if k == Write {
		return c.cfg.Timing.WL + c.cfg.ExtraCodecLatency
	}
	return c.cfg.Timing.RL + c.cfg.ExtraCodecLatency
}

func refColumn(c *Controller) (command, bool) {
	for _, r := range c.activeQueue().reqs {
		ok, op := c.dev.CanRead(r.Addr, c.clock), "RD"
		if r.Kind == Write {
			ok, op = c.dev.CanWrite(r.Addr, c.clock), "WR"
		}
		if ok && c.clock+refLatency(c, r.Kind) >= c.busReservedUntil {
			return command{op: op, bank: r.Addr.Bank, row: r.Addr.Row, id: r.ID}, true
		}
	}
	return command{}, false
}

func refPrep(c *Controller, q *queue) (command, bool) {
	var prepped uint64
	for _, r := range q.reqs {
		bit := uint64(1) << uint(r.Addr.Bank)
		if prepped&bit != 0 {
			continue
		}
		prepped |= bit
		switch {
		case c.dev.RowHit(r.Addr):
		case c.dev.NeedsPrecharge(r.Addr):
			if c.dev.CanPrecharge(r.Addr.Bank, c.clock) {
				row, _ := c.dev.OpenRow(r.Addr.Bank)
				return command{op: "PRE", bank: r.Addr.Bank, row: row}, true
			}
		case c.dev.CanActivate(r.Addr.Bank, c.clock):
			return command{op: "ACT", bank: r.Addr.Bank, row: r.Addr.Row}, true
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
		wanted := false
		for _, q := range []*queue{&c.readQ, &c.writeQ} {
			for _, r := range q.reqs {
				wanted = wanted || (r.Addr.Bank == b && r.Addr.Row == row)
			}
		}
		if !wanted {
			return command{op: "PRE", bank: b, row: row}
		}
	}
	return command{}
}

// refNextIssueReady is the per-request form of nextIssueReady.
func refNextIssueReady(c *Controller) int64 {
	next := int64(-1)
	better := func(t int64) {
		if t >= 0 && (next < 0 || t < next) {
			next = t
		}
	}
	for _, q := range []*queue{&c.readQ, &c.writeQ} {
		for _, r := range q.reqs {
			write := r.Kind == Write
			if t := c.dev.ColumnReadyAt(r.Addr, write); t >= 0 {
				if hold := c.busReservedUntil - refLatency(c, r.Kind); hold > t {
					t = hold
				}
				better(t)
			} else if c.dev.NeedsPrecharge(r.Addr) {
				better(c.dev.PrechargeReadyAt(r.Addr.Bank))
			} else {
				better(c.dev.ActivateReadyAt(r.Addr.Bank))
			}
		}
	}
	if c.cfg.Pages == ClosedPage {
		for b := 0; b < c.cfg.Timing.Banks; b++ {
			better(c.dev.PrechargeReadyAt(b))
		}
	}
	return next
}

// deviceState is what a scheduled command can change on the device.
type deviceState struct {
	acts, reads, writes, pres int64
	open                      [maxBanks]bool
	row                       [maxBanks]uint32
}

func snapshotDevice(c *Controller) deviceState {
	var s deviceState
	s.acts, s.reads, s.writes, s.pres, _ = c.dev.Counters()
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
		return command{op: op, bank: r.Addr.Bank, row: r.Addr.Row, id: r.ID}
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

// checkIndex compares q's bank index with a brute-force recount from the
// queued requests and the device's open rows.
func checkIndex(c *Controller, q *queue) error {
	var want bankIndex
	for _, r := range q.reqs {
		want.queued[r.Addr.Bank]++
		if c.dev.RowHit(r.Addr) {
			want.hit[r.Addr.Bank]++
		}
	}
	for b := 0; b < maxBanks; b++ {
		if want.hit[b] > 0 {
			want.hits |= 1 << uint(b)
		}
		if want.queued[b] > want.hit[b] {
			want.miss |= 1 << uint(b)
		}
	}
	if want != q.bankIndex {
		return fmt.Errorf("%v queue index diverged from recount:\n have hits=%#x miss=%#x queued=%v hit=%v\n want hits=%#x miss=%#x queued=%v hit=%v",
			q.kind, q.hits, q.miss, q.queued, q.hit, want.hits, want.miss, want.queued, want.hit)
	}
	return nil
}

// oracleTick is Tick with the scheduling step checked against refSchedule,
// followed by the index recount.
func oracleTick(t *testing.T, c *Controller) {
	t.Helper()
	if c.beginTick() {
		want := refSchedule(c)
		before := snapshotDevice(c)
		c.schedule()
		if got := issued(c, before); got != want {
			t.Fatalf("clock %d: scheduler issued %+v, linear scan would issue %+v", c.clock, got, want)
		}
	}
	c.clock++
	for _, q := range []*queue{&c.readQ, &c.writeQ} {
		if err := checkIndex(c, q); err != nil {
			t.Fatalf("after clock %d: %v", c.clock-1, err)
		}
	}
	if got, want := c.nextIssueReady(), refNextIssueReady(c); got != want {
		t.Fatalf("after clock %d: nextIssueReady %d, per-request scan %d", c.clock-1, got, want)
	}
}

// TestBankIndexMatchesLinearScan drives randomized bursty traffic one
// clock at a time and, after every tick, requires the bank index to equal
// a brute-force recount, the issued command to equal the linear-scan
// scheduler's choice, and nextIssueReady to equal the per-request bound —
// across page policy × refresh mode × codec latency × encoding policy,
// with write-drain mode switches.
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
						c := newCtrl(t, cfg)
						switches := 0
						tick := func() {
							mode := c.writeMode
							oracleTick(t, c)
							if c.writeMode != mode {
								switches++
							}
						}
						arrivals := randomArrivals(n, 7+uint64(lat))
						for i := 0; i < len(arrivals); {
							for i < len(arrivals) && arrivals[i].at <= c.Clock() && c.Enqueue(arrivals[i].req) {
								i++
							}
							tick()
						}
						for limit := c.Clock() + 1<<20; len(c.readQ.reqs)+len(c.writeQ.reqs)+len(c.completions) > 0; {
							if c.Clock() > limit {
								t.Fatal("drain timed out")
							}
							tick()
						}
						c.Finish()
						st := c.Stats()
						if st.ReadsServed+st.WritesServed != int64(n) {
							t.Fatalf("served %d reads + %d writes of %d requests", st.ReadsServed, st.WritesServed, n)
						}
						if switches < 2 {
							t.Fatalf("only %d read/write mode switches; the run must exercise write drains", switches)
						}
					})
				}
			}
		}
	}
}
