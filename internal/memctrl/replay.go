package memctrl

// EDC-triggered replay: when the link-reliability hook (Config.Fault)
// reports a detected error on a burst, the controller retransmits the
// sector — GDDR6's EDC/CRC-8 replay channel, which GDDR6X inherits.
// Each retransmission costs a feedback/backoff delay plus the slot
// clocks of the re-sent burst; the clocks surface as read latency and
// booked bus time, the joules as bus.Stats.ReplayEnergy (profiler phase
// "replay"). When the observed detected-burst rate crosses a threshold,
// the controller degrades gracefully: it stops choosing opportunistic
// sparse codecs (MTA-only) until the rate recovers, trading the sparse
// codes' energy savings for the denser code's shorter exposure — both
// ends of the link observe the same EDC feedback stream, so the
// degradation decision stays mirrored without extra signaling.

import (
	"fmt"
	"math"

	"smores/internal/core"
)

// ReplayConfig tunes the EDC replay machinery. Only consulted when
// Config.Fault is installed.
type ReplayConfig struct {
	// RetryBudget is the maximum retransmissions per burst before the
	// controller gives up (the error is then recorded as a replay
	// failure and the last received data is delivered). Default 3.
	RetryBudget int
	// BackoffClocks is the base feedback delay in command clocks before
	// the k-th retransmission: the k-th retry waits BackoffClocks<<(k−1)
	// — EDC result round-trip plus exponential backoff. Default 8.
	BackoffClocks int64
	// DegradeThreshold enables graceful degradation: when the fraction
	// of detected bursts over the last DegradeWindow bursts reaches the
	// threshold, SMOREs falls back to MTA-only; it re-enables once the
	// rate drops to half the threshold (hysteresis). Zero disables.
	DegradeThreshold float64
	// DegradeWindow is the burst window for the detected-rate estimate.
	// Default 512.
	DegradeWindow int
}

// withDefaults fills zero fields.
func (r ReplayConfig) withDefaults() ReplayConfig {
	if r.RetryBudget == 0 {
		r.RetryBudget = 3
	}
	if r.BackoffClocks == 0 {
		r.BackoffClocks = 8
	}
	if r.DegradeWindow == 0 {
		r.DegradeWindow = 512
	}
	return r
}

// validate rejects structurally bad replay configurations.
func (r ReplayConfig) validate() error {
	if r.RetryBudget < 0 {
		return fmt.Errorf("memctrl: negative replay retry budget")
	}
	if r.RetryBudget > math.MaxUint16 {
		return fmt.Errorf("memctrl: replay retry budget %d exceeds %d (Request.Replayed counts retries in 16 bits)", r.RetryBudget, math.MaxUint16)
	}
	if r.BackoffClocks < 0 {
		return fmt.Errorf("memctrl: negative replay backoff")
	}
	if r.DegradeThreshold < 0 || r.DegradeThreshold > 1 {
		return fmt.Errorf("memctrl: degrade threshold %g outside [0, 1]", r.DegradeThreshold)
	}
	if r.DegradeWindow < 1 {
		return fmt.Errorf("memctrl: degrade window must be positive")
	}
	return nil
}

// Degraded reports whether the controller is currently in the MTA-only
// degradation state.
func (c *Controller) Degraded() bool { return c.degraded }

// runReplay consults the hook's verdict for the burst just sent and, if
// an error was detected, retransmits until clean or the retry budget is
// spent. It returns the total bus clocks the replay traffic consumed
// (backoff + retransmission slots); the caller folds them into the
// transfer's completion time, the bus reservation, and the idle
// accounting. p.req.CodeLength must be committed before the call.
func (c *Controller) runReplay(p *xfer, data []byte) int64 {
	if c.cfg.Fault == nil {
		return 0
	}
	v := c.ch.LastBurstVerdict()
	c.noteBurstOutcome(v.Detected)
	if !v.Detected {
		return 0
	}
	var clocks int64
	codeLen := int(p.req.CodeLength)
	for attempt := 1; attempt <= c.replay.RetryBudget; attempt++ {
		clocks += c.replay.BackoffClocks<<uint(attempt-1) + int64(core.SlotClocks(codeLen))
		c.st.Replays++
		if err := c.ch.ReplayBurst(data, codeLen); err != nil {
			panic("memctrl: " + err.Error())
		}
		p.req.Replayed++
		if v = c.ch.LastBurstVerdict(); !v.Detected {
			return clocks
		}
	}
	c.st.ReplayFailures++
	return clocks
}

// noteBurstOutcome feeds the degradation window with one payload burst's
// detection outcome and updates the hysteresis state.
func (c *Controller) noteBurstOutcome(detected bool) {
	if c.faultWin == nil {
		return
	}
	if c.faultWinFill == len(c.faultWin) {
		if c.faultWin[c.faultWinIdx] {
			c.faultWinHits--
		}
	} else {
		c.faultWinFill++
	}
	c.faultWin[c.faultWinIdx] = detected
	if detected {
		c.faultWinHits++
	}
	c.faultWinIdx++
	if c.faultWinIdx == len(c.faultWin) {
		c.faultWinIdx = 0
	}
	if c.faultWinFill < len(c.faultWin) {
		return // rate estimate not warm yet
	}
	rate := float64(c.faultWinHits) / float64(c.faultWinFill)
	if !c.degraded && rate >= c.replay.DegradeThreshold {
		c.degraded = true
	} else if c.degraded && rate <= c.replay.DegradeThreshold/2 {
		c.degraded = false
	}
}
