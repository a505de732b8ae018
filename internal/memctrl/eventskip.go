package memctrl

// Next-event skipping: between commands the controller/device state is
// static, so Tick is inert (clock advance plus idempotent gauge writes)
// until the earliest of: a read completion delivering, the pending
// encoding decision reaching its deadline, an all-bank refresh shadow
// ending, a refresh becoming due, or a queued request's column/ACT/PRE
// timing expiring. NextEventClock computes a conservative lower bound on
// that clock and SkipTo advances straight to it.
//
// Conservatism is the safety argument: waking too early just runs an
// inert Tick and re-arms (the per-clock loop is the degenerate case);
// waking too late would diverge, so every bound below is the exact
// ready-clock of the device's Can* predicates or earlier. Bit-identity
// with the per-clock loop (DisableEventSkip) is enforced by
// TestEventSkipBitIdentical in the report package across all five
// evaluation policies.

import "smores/internal/gddr6x"

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
		if t := c.pending.cmdAt + c.decisionDeadline() + 1; t < next {
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
			if t := c.dev.RefreshReadyAt(); t >= 0 {
				if t < next {
					next = t
				}
			} else {
				for b := 0; b < c.cfg.Timing.Banks; b++ {
					if t := c.dev.PrechargeReadyAt(b); t >= 0 && t < next {
						next = t
					}
				}
			}
			return clampNow(next, now)
		}
		if due := c.dev.RefreshDueAt(); due < next {
			next = due
		}
	}

	if len(c.readQ.reqs)+len(c.writeQ.reqs) > 0 {
		// Streaming bail-out: if a column command landed within the last
		// tCCD_L clocks, the next issue slot is at most that far away and
		// the per-bank scan below would cost more than the skip saves.
		// Returning "now" is always safe (the tick just runs normally).
		if c.dev.LastColumnAt()+c.cfg.Timing.TCCDL > now {
			return now
		}
	}
	if t := c.nextIssueReady(); t >= 0 {
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

// nextIssueReady returns the earliest clock at which any queued request
// could receive a command (column, precharge, or activate) — or, under
// ClosedPage, an idle precharge could fire. -1 means no issue event can
// occur by time alone (empty queues). The bound is conservative: it
// ignores FR-FCFS ordering, per-bank prep dedup, and the active/inactive
// queue split, all of which can only delay the real issue past the bound.
// A request's ready clock depends only on its bank, its direction and
// whether it hits the open row, so one query per indexed bank covers
// every request.
func (c *Controller) nextIssueReady() int64 {
	next := int64(-1)
	better := func(t int64) {
		if t >= 0 && (next < 0 || t < next) {
			next = t
		}
	}
	for _, q := range [2]*queue{&c.readQ, &c.writeQ} {
		write := q.kind == Write
		// issueColumn holds commands whose data would start inside a
		// booked slot.
		hold := c.busReservedUntil - c.latency(q.kind)
		for m := q.hits; m != 0; {
			b := lowBank(&m)
			row, _ := c.dev.OpenRow(b)
			t := c.dev.ColumnReadyAt(gddr6x.Address{Bank: b, Row: row}, write)
			if hold > t {
				t = hold
			}
			better(t)
		}
		// A miss in an open bank needs a PRECHARGE, in a closed one an
		// ACTIVATE.
		for m := q.miss; m != 0; {
			b := lowBank(&m)
			if t := c.dev.PrechargeReadyAt(b); t >= 0 {
				better(t)
			} else {
				better(c.dev.ActivateReadyAt(b))
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
func (c *Controller) ReadQueueFull() bool { return len(c.readQ.reqs) >= c.cfg.ReadQueueCap }

// WriteQueueFull reports whether the write queue is at capacity.
func (c *Controller) WriteQueueFull() bool { return len(c.writeQ.reqs) >= c.cfg.WriteQueueCap }

// EventSkipEnabled reports whether this controller may be advanced with
// next-event skipping (DisableEventSkip not called).
func (c *Controller) EventSkipEnabled() bool { return !c.noEventSkip }

// DisableEventSkip pins this controller — Drain, and the GPU driver that
// runs it — to the one-clock-at-a-time tick loop. It is the test oracle
// the event-skip differential tests compare the skipping loop against;
// the two are bit-identical, so simulations have no reason to call it.
func (c *Controller) DisableEventSkip() { c.noEventSkip = true }
