package memctrl

import (
	"testing"

	"smores/internal/core"
	"smores/internal/gddr6x"
	"smores/internal/rng"
)

// feed runs the controller, enqueuing each (clock, request) pair at its
// time, then drains.
type arrival struct {
	at  int64
	req *Request
}

func feed(t *testing.T, c *Controller, arrivals []arrival) {
	t.Helper()
	i := 0
	for i < len(arrivals) {
		for i < len(arrivals) && arrivals[i].at <= c.Clock() {
			if !c.Enqueue(arrivals[i].req) {
				break // queue full: retry next tick
			}
			i++
		}
		c.Tick()
		if c.Clock() > 1<<22 {
			t.Fatal("controller livelocked")
		}
	}
	if !c.Drain(1 << 20) {
		t.Fatal("drain timed out")
	}
	c.Finish()
}

func seqReads(n int, startSector uint64, spacing int64) []arrival {
	out := make([]arrival, n)
	for i := range out {
		out[i] = arrival{
			at:  int64(i) * spacing,
			req: &Request{ID: uint64(i), Kind: Read, Sector: startSector + uint64(i)},
		}
	}
	return out
}

func newCtrl(t *testing.T, cfg Config) *Controller {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{WriteHi: 2, WriteLo: 5}); err == nil {
		t.Error("inverted watermarks must fail")
	}
	if _, err := New(Config{ExtraCodecLatency: -1}); err == nil {
		t.Error("negative latency must fail")
	}
	bad := gddr6x.DefaultTiming()
	bad.RL = 0
	if _, err := New(Config{Timing: bad}); err == nil {
		t.Error("bad timing must fail")
	}
}

func TestBackToBackReadsHaveNoGaps(t *testing.T) {
	c := newCtrl(t, Config{Policy: BaselineMTA})
	done := 0
	c.OnReadDone(func(r *Request) {
		done++
		if r.CodeLength != 0 {
			t.Errorf("baseline produced code length %d", r.CodeLength)
		}
	})
	// A saturating stream: all requests available at time 0, sequential
	// sectors (row hits after the first activate).
	feed(t, c, seqReads(64, 0, 0))
	if done != 64 {
		t.Fatalf("completed %d/64 reads", done)
	}
	h := c.ReadGapHistogram()
	if h.Total() == 0 {
		t.Fatal("no gaps recorded")
	}
	// Back-to-back dominates; the residue is the one-clock slip from
	// two-clock ACTIVATEs and same-bank-group tCCD_L spacing.
	if f := h.Fraction(0); f < 0.75 {
		t.Errorf("saturating stream gap-0 fraction = %.2f, want ≥0.75 (%v)", f, h)
	}
	if tail := h.TailFraction(2); tail > 0.1 {
		t.Errorf("saturating stream tail ≥2 = %.2f, want ≤0.1 (%v)", tail, h)
	}
	if c.Stats().BusConflicts != 0 || c.Stats().DecisionMismatches != 0 {
		t.Errorf("invariant violations: %+v", c.Stats())
	}
}

func TestIsolatedReadLatency(t *testing.T) {
	c := newCtrl(t, Config{Policy: BaselineMTA})
	var got Request
	done := false
	c.OnReadDone(func(r *Request) { got, done = *r, true })
	feed(t, c, seqReads(1, 0, 0))
	if !done {
		t.Fatal("read never completed")
	}
	cfg := gddr6x.DefaultTiming()
	// ACT at 0, RD at tRCD, data [tRCD+RL, +2), done at tRCD+RL+2.
	want := cfg.TRCD + cfg.RL + 2
	if got.Done != want {
		t.Errorf("isolated read done at %d, want %d", got.Done, want)
	}
}

func TestStaticSchemeUsesSparseOnGaps(t *testing.T) {
	c := newCtrl(t, Config{
		Policy: SMOREs,
		Scheme: core.Scheme{Specification: core.StaticCode, Detection: core.Exhaustive},
	})
	codeLens := map[int]int{}
	c.OnReadDone(func(r *Request) { codeLens[int(r.CodeLength)]++ })
	// Requests spaced 3 clocks apart: in steady state each pair leaves a
	// one-clock gap (the startup tRCD stall briefly builds a back-to-back
	// backlog).
	feed(t, c, seqReads(300, 0, 3))
	if codeLens[3] == 0 {
		t.Fatalf("no sparse reads on gapped traffic: %v", codeLens)
	}
	if c.Stats().SparseReads == 0 {
		t.Error("sparse read counter not advanced")
	}
	if c.Stats().DecisionMismatches != 0 {
		t.Error("DRAM and GPU decisions diverged")
	}
	// Gaps of exactly 1 should dominate the histogram.
	h := c.ReadGapHistogram()
	if h.Fraction(1) < 0.5 {
		t.Errorf("gap-1 fraction = %.2f, want ≥0.5 (%v)", h.Fraction(1), h)
	}
	if h.Fraction(1) < h.TailFraction(2) {
		t.Errorf("gap-1 (%.2f) should dominate larger gaps (%.2f)", h.Fraction(1), h.TailFraction(2))
	}
}

func TestVariableSchemeSizesCodeToGap(t *testing.T) {
	c := newCtrl(t, Config{
		Policy: SMOREs,
		Scheme: core.Scheme{Specification: core.VariableCode, Detection: core.Exhaustive},
	})
	codeLens := map[int]int{}
	c.OnReadDone(func(r *Request) { codeLens[int(r.CodeLength)]++ })
	// Stride the sectors across alternating bank groups (two chunks
	// apart) so rows stay open and tCCD_S applies: command spacing 6 then
	// yields a steady 4-clock gap → 4b6s.
	arrivals := make([]arrival, 60)
	chunk := int64(gddr6x.DefaultTiming().ChunkSectors)
	for i := range arrivals {
		arrivals[i] = arrival{
			at:  int64(i) * 6,
			req: &Request{ID: uint64(i), Kind: Read, Sector: uint64(int64(i) * 2 * chunk)},
		}
	}
	feed(t, c, arrivals)
	if codeLens[6] < 30 {
		t.Fatalf("expected mostly 4b6s codes, got %v", codeLens)
	}
}

func TestVariableSchemeCapsAtEight(t *testing.T) {
	c := newCtrl(t, Config{
		Policy: SMOREs,
		Scheme: core.Scheme{Specification: core.VariableCode, Detection: core.Exhaustive},
	})
	codeLens := map[int]int{}
	c.OnReadDone(func(r *Request) { codeLens[int(r.CodeLength)]++ })
	feed(t, c, seqReads(20, 0, 60)) // giant gaps
	if codeLens[8] == 0 {
		t.Fatalf("expected capped 4b8s codes, got %v", codeLens)
	}
	for l := range codeLens {
		if l != 0 && (l < 3 || l > 8) {
			t.Errorf("illegal code length %d", l)
		}
	}
}

func TestConservativeFallsBackOnLongGaps(t *testing.T) {
	c := newCtrl(t, Config{
		Policy: SMOREs,
		Scheme: core.Scheme{Specification: core.StaticCode, Detection: core.Conservative},
	})
	codeLens := map[int]int{}
	c.OnReadDone(func(r *Request) { codeLens[int(r.CodeLength)]++ })
	feed(t, c, seqReads(20, 0, 60)) // gaps beyond the 8-clock window
	if codeLens[0] == 0 {
		t.Fatalf("conservative scheme should fall back to MTA: %v", codeLens)
	}
	if codeLens[3] != 0 {
		t.Errorf("conservative scheme used sparse beyond its window: %v", codeLens)
	}
	// Short gaps inside the window still use sparse.
	c2 := newCtrl(t, Config{
		Policy: SMOREs,
		Scheme: core.Scheme{Specification: core.StaticCode, Detection: core.Conservative},
	})
	lens2 := map[int]int{}
	c2.OnReadDone(func(r *Request) { lens2[int(r.CodeLength)]++ })
	feed(t, c2, seqReads(40, 0, 3))
	if lens2[3] == 0 {
		t.Errorf("conservative scheme should use sparse inside the window: %v", lens2)
	}
}

func TestSparseSavesEnergyOnGappedTraffic(t *testing.T) {
	run := func(policy EncodingPolicy, scheme core.Scheme) float64 {
		c := newCtrl(t, Config{Policy: policy, Scheme: scheme})
		feed(t, c, seqReads(200, 0, 3))
		return c.BusStats().PerBit()
	}
	base := run(BaselineMTA, core.Scheme{})
	smores := run(SMOREs, core.Scheme{Specification: core.StaticCode, Detection: core.Exhaustive})
	opt := run(OptimizedMTA, core.Scheme{})
	if smores >= base {
		t.Errorf("SMOREs (%.1f) not cheaper than baseline (%.1f)", smores, base)
	}
	if opt >= base {
		t.Errorf("optimized MTA (%.1f) should drop postamble energy vs %.1f", opt, base)
	}
	saving := 1 - smores/base
	t.Logf("static SMOREs saving on all-gap-1 read stream: %.1f%%", saving*100)
	if saving < 0.15 {
		t.Errorf("saving %.1f%% implausibly low for pure gap-1 traffic", saving*100)
	}
}

func TestWriteDrainAndTurnaround(t *testing.T) {
	c := newCtrl(t, Config{Policy: BaselineMTA, WriteQueueCap: 16, WriteHi: 8, WriteLo: 2})
	var arrivals []arrival
	// Interleaved reads and writes to force mode switches.
	for i := 0; i < 60; i++ {
		kind := Read
		if i%3 == 0 {
			kind = Write
		}
		arrivals = append(arrivals, arrival{at: int64(i) * 2, req: &Request{ID: uint64(i), Kind: kind, Sector: uint64(i * 7)}})
	}
	done := 0
	c.OnReadDone(func(*Request) { done++ })
	feed(t, c, arrivals)
	st := c.Stats()
	if st.WritesServed != 20 {
		t.Errorf("writes served = %d, want 20", st.WritesServed)
	}
	if done != 40 {
		t.Errorf("reads completed = %d, want 40", done)
	}
	if st.BusConflicts != 0 {
		t.Errorf("bus conflicts: %d", st.BusConflicts)
	}
	if c.WriteGapHistogram().Total() == 0 {
		t.Error("no write gaps recorded")
	}
}

func TestRefreshDoesNotDeadlock(t *testing.T) {
	c := newCtrl(t, Config{Policy: BaselineMTA})
	// Enough spaced requests to cross several tREFI periods.
	arrivals := seqReads(400, 0, 40)
	done := 0
	c.OnReadDone(func(*Request) { done++ })
	feed(t, c, arrivals)
	if done != 400 {
		t.Fatalf("completed %d/400 across refresh windows", done)
	}
	_, _, _, _, refs := devCounters(c)
	if refs == 0 {
		t.Error("no refreshes issued over a long run")
	}
}

func devCounters(c *Controller) (int64, int64, int64, int64, int64) {
	return c.dev.Counters()
}

// TestRandomTrafficInvariants fuzzes the controller across schemes and
// checks the structural invariants: every request completes, no bus
// conflicts, no DRAM/GPU decision mismatches, no queue leaks.
func TestRandomTrafficInvariants(t *testing.T) {
	schemes := []Config{
		{Policy: BaselineMTA},
		{Policy: OptimizedMTA},
		{Policy: SMOREs, Scheme: core.Scheme{Specification: core.StaticCode, Detection: core.Exhaustive}},
		{Policy: SMOREs, Scheme: core.Scheme{Specification: core.VariableCode, Detection: core.Exhaustive}},
		{Policy: SMOREs, Scheme: core.Scheme{Specification: core.StaticCode, Detection: core.Conservative}},
	}
	for si, cfg := range schemes {
		r := rng.New(uint64(1000 + si))
		var arrivals []arrival
		at := int64(0)
		reads := 0
		for i := 0; i < 600; i++ {
			at += int64(r.Intn(12))
			kind := Read
			if r.Bool(0.25) {
				kind = Write
			} else {
				reads++
			}
			arrivals = append(arrivals, arrival{at: at, req: &Request{
				ID: uint64(i), Kind: kind, Sector: uint64(r.Intn(1 << 18)),
			}})
		}
		c := newCtrl(t, cfg)
		done := 0
		c.OnReadDone(func(rq *Request) {
			done++
			if rq.Done < rq.DataStart {
				t.Errorf("scheme %d: completion before data start", si)
			}
		})
		feed(t, c, arrivals)
		st := c.Stats()
		if done != reads {
			t.Errorf("scheme %d: %d/%d reads completed", si, done, reads)
		}
		if st.WritesServed != int64(len(arrivals)-reads) {
			t.Errorf("scheme %d: writes served %d/%d", si, st.WritesServed, len(arrivals)-reads)
		}
		if st.BusConflicts != 0 {
			t.Errorf("scheme %d: %d bus conflicts", si, st.BusConflicts)
		}
		if st.DecisionMismatches != 0 {
			t.Errorf("scheme %d: %d decision mismatches", si, st.DecisionMismatches)
		}
		if r, w := c.QueueLens(); r != 0 || w != 0 {
			t.Errorf("scheme %d: queues leaked %d/%d", si, r, w)
		}
	}
}

func TestExtraCodecLatencyAblation(t *testing.T) {
	base := newCtrl(t, Config{Policy: BaselineMTA})
	slow := newCtrl(t, Config{Policy: BaselineMTA, ExtraCodecLatency: 1})
	feed(t, base, seqReads(50, 0, 4))
	feed(t, slow, seqReads(50, 0, 4))
	if slow.AverageReadLatency() <= base.AverageReadLatency() {
		t.Errorf("extra codec cycle did not increase latency: %.2f vs %.2f",
			slow.AverageReadLatency(), base.AverageReadLatency())
	}
	// Regression: the data-bus reservation check must account for the
	// extra pipeline latency, or every back-to-back pair slips a clock
	// and the one-cycle ablation masquerades as a ~16% throughput loss.
	if d := slow.AverageReadLatency() - base.AverageReadLatency(); d > 3 {
		t.Errorf("one extra codec cycle added %.2f clocks of latency; reservation is misaligned", d)
	}
	if base.ReadGapHistogram().Fraction(0) > 0 && slow.ReadGapHistogram().Fraction(0) == 0 {
		t.Error("extra codec cycle eliminated all back-to-back transfers")
	}
}

func TestEnqueueBackpressure(t *testing.T) {
	c := newCtrl(t, Config{Policy: BaselineMTA, ReadQueueCap: 2, WriteQueueCap: 2, WriteHi: 2, WriteLo: 1})
	if !c.Enqueue(&Request{Kind: Read, Sector: 0}) || !c.Enqueue(&Request{Kind: Read, Sector: 1}) {
		t.Fatal("enqueue failed below capacity")
	}
	if c.Enqueue(&Request{Kind: Read, Sector: 2}) {
		t.Error("enqueue succeeded beyond capacity")
	}
	if !c.Enqueue(&Request{Kind: Write, Sector: 3}) {
		t.Error("write enqueue failed")
	}
	if desc := c.Describe(); desc != "baseline-mta" {
		t.Errorf("Describe = %q", desc)
	}
}

func TestDescribeSMOREs(t *testing.T) {
	c := newCtrl(t, Config{Policy: SMOREs, Scheme: core.Scheme{Specification: core.VariableCode, Detection: core.Exhaustive}})
	if got := c.Describe(); got != "smores(exhaustive/variable)" {
		t.Errorf("Describe = %q", got)
	}
	if EncodingPolicy(9).String() == "" || BaselineMTA.String() != "baseline-mta" {
		t.Error("policy names wrong")
	}
}
