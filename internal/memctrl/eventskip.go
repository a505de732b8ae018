package memctrl

// Next-event skipping: between commands the controller/device state is
// static, so Tick is inert (clock advance plus idempotent gauge writes)
// until the earliest of: a read completion delivering, the pending
// encoding decision reaching its deadline, an all-bank refresh shadow
// ending, a refresh becoming due, or a command the scheduler would issue
// becoming legal. NextEventClock computes a lower bound on that clock and
// SkipTo advances straight to it.
//
// The contract: no tick before the bound issues a command, delivers a
// completion or commits an encoding decision, provided no request is
// enqueued in between (callers bound a skip by their next arrival). With
// queue depths fixed, the read/write mode every scheduling tick runs in
// is fixed too, so only two kinds of command can become issuable by time
// alone: column commands of the queue that mode makes active, and the
// PRECHARGE or ACTIVATE of a bank whose oldest request in either queue
// misses its open row (plus idle precharges under ClosedPage). Row hits
// in the other queue, and banks whose oldest request hits, wait for a
// command or an enqueue — events that end the skip — whatever their
// device timing says.
//
// Waking too early just runs an inert Tick and re-arms (the per-clock
// loop is the degenerate case); waking too late would diverge.
// TestBankIndexMatchesLinearScan and FuzzSchedulerMatchesLinearScan check
// after every tick that no tick before the bound does anything, and
// TestEventSkipBitIdentical in the report package checks bit-identity
// with the per-clock loop (DisableEventSkip) across all five evaluation
// policies.

const farFuture = int64(1) << 62

// NextEventClock returns the earliest clock, at or after the current one,
// at which Tick could do more than advance the clock. A return equal to
// Clock() means "possibly actionable right now — do not skip".
func (c *Controller) NextEventClock() int64 {
	now := c.clock
	next := farFuture
	if len(c.completions) > 0 {
		next = c.completions[0].Done
	}
	if c.hasPending && !c.pending.decided {
		// Deadline fires at the first clock where clock-cmdAt > deadline.
		if t := c.pending.req.IssuedAt + c.decisionDeadline() + 1; t < next {
			next = t
		}
	}

	// Inside an all-bank refresh shadow Tick returns before any issue
	// logic: only completions, the decision deadline, and the shadow's end
	// need attention.
	if busy := c.dev.BusyUntil(); now < busy {
		if busy < next {
			next = busy
		}
		return clampNow(next, now)
	}

	if c.cfg.Refresh == PerBank {
		if due := c.dev.PerBankRefreshDueAt(); now >= due {
			// REFpb owed: the controller precharges/refreshes the target
			// bank as soon as the device allows, every tick until it lands.
			b := c.dev.NextRefreshBank()
			var t int64
			if _, open := c.dev.OpenRow(b); open {
				t = c.dev.PrechargeReadyAt(b)
			} else {
				t = c.dev.RefreshBankReadyAt(b)
			}
			if t >= 0 && t < next {
				next = t
			}
		} else if due < next {
			next = due
		}
		// Other banks keep serving: fall through to the issue events.
	} else {
		if c.refreshing || now >= c.dev.RefreshDueAt() {
			// Refresh drain: column/prep issue is suppressed until REFab
			// lands, so the only events are the refresh itself or the
			// precharges clearing the way for it.
			t := c.dev.RefreshReadyAt()
			if t < 0 {
				t = c.dev.PrepReadyAtMask(c.dev.OpenMask())
			}
			if t < next {
				next = t
			}
			return clampNow(next, now)
		}
		if due := c.dev.RefreshDueAt(); due < next {
			next = due
		}
	}

	if c.readQ.n+c.writeQ.n > 0 {
		// Streaming bail-out: if a column command landed within the last
		// tCCD_L clocks, the next issue slot is at most that far away and
		// the per-bank scan below would cost more than the skip saves.
		// Returning "now" is always safe (the tick just runs normally).
		if c.dev.LastColumnAt()+c.cfg.Timing.TCCDL > now {
			return now
		}
	}
	if t := c.nextIssueReady(); t < next {
		// Column and prep commands share the command bus; nothing issues
		// before a two-clock ACTIVATE releases it.
		if t < c.cmdBusyTill {
			t = c.cmdBusyTill
		}
		if t < next {
			next = t
		}
	}
	return clampNow(next, now)
}

func clampNow(next, now int64) int64 {
	if next < now {
		return now
	}
	return next
}

// nextIssueReady returns the earliest clock at which the scheduler could
// issue a command by time alone, or farFuture when it cannot: the exact
// first clock at which a column command of the queue nextWriteMode makes
// active, the PRECHARGE or ACTIVATE of a bank whose oldest request in
// either queue misses its open row, or (under ClosedPage) the precharge
// of an open bank no queued request hits would pass the device's and the
// data bus's checks. It ignores FR-FCFS ordering among those candidates,
// which only picks which of them issues.
func (c *Controller) nextIssueReady() int64 {
	q := &c.readQ
	if c.nextWriteMode() {
		q = &c.writeQ
	}
	next := c.columnReadyAt(q, q.hits)
	for _, q := range [2]*queue{&c.readQ, &c.writeQ} {
		next = min(next, orFar(c.dev.PrepReadyAtMask(q.oldMiss)))
	}
	if c.cfg.Pages == ClosedPage {
		idle := c.dev.OpenMask() &^ (c.readQ.hits | c.writeQ.hits)
		next = min(next, orFar(c.dev.PrepReadyAtMask(idle)))
	}
	return next
}

// SkipTo advances the clock to target as if target−Clock() inert Ticks
// had run: the stats clock and gauges read exactly what the last skipped
// tick would have written, and no commands issue. Callers must guarantee
// every clock in [Clock(), target) is inert — NextEventClock provides
// such a bound. Targets at or before the current clock are ignored.
func (c *Controller) SkipTo(target int64) {
	if target <= c.clock {
		return
	}
	c.clock = target
	// Preserve the post-Tick invariant st.Clock == clock-1.
	c.st.Clock = target - 1
}

// ReadQueueFull and WriteQueueFull report request-queue backpressure;
// the GPU driver uses them to recognize stall windows it can skip.
func (c *Controller) ReadQueueFull() bool { return c.readQ.n >= c.cfg.ReadQueueCap }

// WriteQueueFull reports whether the write queue is at capacity.
func (c *Controller) WriteQueueFull() bool { return c.writeQ.n >= c.cfg.WriteQueueCap }

// EventSkipEnabled reports whether this controller may be advanced with
// next-event skipping (DisableEventSkip not called).
func (c *Controller) EventSkipEnabled() bool { return !c.noEventSkip }

// DisableEventSkip pins this controller — Drain, and the GPU driver that
// runs it — to the one-clock-at-a-time tick loop. It is the test oracle
// the event-skip differential tests compare the skipping loop against;
// the two are bit-identical, so simulations have no reason to call it.
func (c *Controller) DisableEventSkip() { c.noEventSkip = true }
