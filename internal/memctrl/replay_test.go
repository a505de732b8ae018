package memctrl

import (
	"math"
	"testing"

	"smores/internal/bus"
	"smores/internal/core"
	"smores/internal/fault"
	"smores/internal/mta"
	"smores/internal/obs"
)

// scriptHook is a deterministic link-reliability hook: the first
// failFirst dispatches (payload and replay alike) report a detected
// error, everything after is clean. It lets the degradation tests drive
// the hysteresis state machine without Monte Carlo noise.
type scriptHook struct {
	failFirst int
	calls     int
}

func (h *scriptHook) OnBurst(data []byte, codeLength int, pre [bus.Groups]mta.GroupState, tx [bus.Groups][]mta.Column, replay bool) bus.BurstVerdict {
	h.calls++
	return bus.BurstVerdict{Detected: h.calls <= h.failFirst, Injected: 1}
}

func smoresCfg() Config {
	return Config{
		Policy: SMOREs,
		Scheme: core.Scheme{Specification: core.VariableCode, Detection: core.Exhaustive},
	}
}

func TestReplayConfigValidation(t *testing.T) {
	in, err := fault.New(fault.Config{Model: fault.ModelUniform, Rate: 0.01, Seed: 1, EDC: true})
	if err != nil {
		t.Fatal(err)
	}
	cfg := smoresCfg()
	cfg.Fault = in
	if _, err := New(cfg); err == nil {
		t.Fatal("fault hook without exact-data mode should be rejected")
	}
	cfg.Bus = bus.Config{ExactData: true}
	cfg.Replay = ReplayConfig{DegradeThreshold: 1.5}
	if _, err := New(cfg); err == nil {
		t.Fatal("degrade threshold above 1 should be rejected")
	}
	cfg.Replay = ReplayConfig{RetryBudget: -1}
	if _, err := New(cfg); err == nil {
		t.Fatal("negative retry budget should be rejected")
	}
	cfg.Replay = ReplayConfig{}
	if _, err := New(cfg); err != nil {
		t.Fatalf("valid replay config rejected: %v", err)
	}
}

// TestReplayCostsLatencyAndEnergy runs the same read stream over a clean
// and a noisy link and checks that replays surface as read latency, bus
// clocks, and ReplayEnergy — while the scheduling and mirroring
// invariants stay intact.
func TestReplayCostsLatencyAndEnergy(t *testing.T) {
	run := func(noisy bool) *Controller {
		cfg := smoresCfg()
		cfg.Bus = bus.Config{ExactData: true}
		if noisy {
			in, err := fault.New(fault.Config{Model: fault.ModelUniform, Rate: 0.02, Seed: 9, EDC: true})
			if err != nil {
				t.Fatal(err)
			}
			cfg.Fault = in
		}
		c := newCtrl(t, cfg)
		feed(t, c, seqReads(400, 0, 12))
		return c
	}
	clean, noisy := run(false), run(true)

	st := noisy.Stats()
	if st.Replays == 0 {
		t.Fatal("2% symbol noise with EDC over 400 bursts should trigger replays")
	}
	if st.ReplayClocks == 0 {
		t.Fatal("replays consumed no bus clocks")
	}
	if st.DecisionMismatches != 0 || st.BusConflicts != 0 {
		t.Fatalf("replay broke scheduling invariants: %+v", st)
	}
	if clean.Stats().Replays != 0 || clean.Stats().ReplayClocks != 0 {
		t.Fatalf("clean link replayed: %+v", clean.Stats())
	}

	bst := noisy.BusStats()
	if bst.ReplayBursts != st.Replays {
		t.Fatalf("bus saw %d replay bursts, controller booked %d", bst.ReplayBursts, st.Replays)
	}
	if bst.ReplayEnergy <= 0 {
		t.Fatal("replay traffic burned no energy")
	}
	if got, want := bst.TotalEnergy(), bst.WireEnergy+bst.PostambleEnergy+bst.LogicEnergy+bst.ReplayEnergy; math.Abs(got-want) > 1e-9*want {
		t.Fatalf("energy partition broke under replay: total %g != %g", got, want)
	}
	if bst.Violations != 0 {
		t.Fatalf("replay seams produced %d transition violations", bst.Violations)
	}

	if noisy.AverageReadLatency() <= clean.AverageReadLatency() {
		t.Fatalf("replays should cost latency: noisy %.2f vs clean %.2f clocks",
			noisy.AverageReadLatency(), clean.AverageReadLatency())
	}
}

// TestReplayPerRequestAccounting checks that per-request Replayed counts
// reconcile with the controller total on a read-only stream.
func TestReplayPerRequestAccounting(t *testing.T) {
	in, err := fault.New(fault.Config{Model: fault.ModelBursty, Rate: 0.02, Seed: 4, EDC: true, BurstLen: 4})
	if err != nil {
		t.Fatal(err)
	}
	cfg := smoresCfg()
	cfg.Bus = bus.Config{ExactData: true}
	cfg.Fault = in
	c := newCtrl(t, cfg)
	total := 0
	c.OnReadDone(func(r *Request) { total += int(r.Replayed) })
	feed(t, c, seqReads(300, 0, 10))
	st := c.Stats()
	if st.Replays == 0 {
		t.Fatal("bursty noise should trigger replays")
	}
	if int64(total) != st.Replays {
		t.Fatalf("per-request replays sum to %d, controller counted %d", total, st.Replays)
	}
}

// TestReplayBudgetExhaustion uses a hook that never comes clean: every
// corrupted burst must burn the full retry budget and count as a failure.
func TestReplayBudgetExhaustion(t *testing.T) {
	h := &scriptHook{failFirst: 1 << 30}
	cfg := smoresCfg()
	cfg.Bus = bus.Config{ExactData: true}
	cfg.Fault = h
	cfg.Replay = ReplayConfig{RetryBudget: 2}
	c := newCtrl(t, cfg)
	feed(t, c, seqReads(50, 0, 16))
	st := c.Stats()
	if st.ReplayFailures == 0 {
		t.Fatal("always-dirty link should exhaust the retry budget")
	}
	if st.Replays != 2*st.ReplayFailures {
		t.Fatalf("budget 2 should book 2 replays per failure: %d replays, %d failures",
			st.Replays, st.ReplayFailures)
	}
	if st.BusConflicts != 0 || st.DecisionMismatches != 0 {
		t.Fatalf("invariants violated: %+v", st)
	}
}

// TestDegradationEntersAndExits drives the windowed detected-rate
// estimator through its hysteresis: a dirty prefix pushes the controller
// into MTA-only, a clean tail recovers it.
func TestDegradationEntersAndExits(t *testing.T) {
	h := &scriptHook{failFirst: 60}
	cfg := smoresCfg()
	cfg.Bus = bus.Config{ExactData: true}
	cfg.Fault = h
	cfg.Replay = ReplayConfig{DegradeThreshold: 0.5, DegradeWindow: 8, RetryBudget: 1}
	c := newCtrl(t, cfg)

	sawDegraded := false
	c.OnReadDone(func(r *Request) {
		if c.Degraded() {
			sawDegraded = true
		}
	})
	feed(t, c, seqReads(300, 0, 14))

	st := c.Stats()
	if !sawDegraded {
		t.Fatal("dirty prefix never entered degradation")
	}
	if st.DegradedBursts == 0 {
		t.Fatal("degradation never forced an MTA burst")
	}
	if c.Degraded() {
		t.Fatal("clean tail should have exited degradation")
	}
	if st.SparseReads == 0 {
		t.Fatal("recovery should re-enable sparse encodings")
	}
	if st.DecisionMismatches != 0 {
		t.Fatalf("degradation desynced the link ends: %d mismatches", st.DecisionMismatches)
	}
}

// TestDegradationDisabledByDefault leaves DegradeThreshold zero: even an
// always-dirty link must never flip the controller into MTA-only.
func TestDegradationDisabledByDefault(t *testing.T) {
	h := &scriptHook{failFirst: 1 << 30}
	cfg := smoresCfg()
	cfg.Bus = bus.Config{ExactData: true}
	cfg.Fault = h
	cfg.Replay = ReplayConfig{RetryBudget: 1}
	c := newCtrl(t, cfg)
	feed(t, c, seqReads(100, 0, 14))
	if c.Degraded() || c.Stats().DegradedBursts != 0 {
		t.Fatalf("degradation fired with threshold 0: %+v", c.Stats())
	}
	if c.Stats().SparseReads == 0 {
		t.Fatal("sparse encoding should stay enabled")
	}
}

// TestReplayProfileConservation checks the PhaseReplay cells reconcile
// with Stats.ReplayEnergy and the profile total still matches the
// channel total under sustained replay traffic.
func TestReplayProfileConservation(t *testing.T) {
	in, err := fault.New(fault.Config{Model: fault.ModelEyeBiased, Rate: 0.02, Seed: 12, EDC: true})
	if err != nil {
		t.Fatal(err)
	}
	prof := obs.NewProfile()
	cfg := smoresCfg()
	cfg.Bus = bus.Config{ExactData: true, Profile: prof, MTALogicPerBit: -1, SparseLogicPerBit: -1}
	cfg.Fault = in
	c := newCtrl(t, cfg)
	feed(t, c, seqReads(300, 0, 10))
	c.DetachTally().Publish(prof)

	st := c.BusStats()
	if st.ReplayEnergy <= 0 {
		t.Fatal("no replay energy accrued")
	}
	tol := 1e-9 * math.Max(st.TotalEnergy(), 1)
	if rp := prof.PhaseEnergy(obs.PhaseReplay); math.Abs(rp-st.ReplayEnergy) > tol {
		t.Fatalf("replay phase %.9g vs stats %.9g", rp, st.ReplayEnergy)
	}
	if got := prof.TotalEnergy(); math.Abs(got-st.TotalEnergy()) > tol {
		t.Fatalf("profile total %.9g vs stats %.9g", got, st.TotalEnergy())
	}
}
