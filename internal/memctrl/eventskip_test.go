package memctrl

import (
	"testing"

	"smores/internal/core"
	"smores/internal/rng"
)

// randomArrivals synthesizes a bursty read/write mix: clustered sectors
// for row locality, occasional far jumps for conflicts, and irregular
// inter-arrival gaps so the controller sees idle windows, write drains,
// and refresh shadows.
func randomArrivals(n int, seed uint64) []arrival {
	r := rng.New(seed)
	out := make([]arrival, n)
	var at int64
	base := uint64(0)
	for i := range out {
		switch r.Intn(8) {
		case 0:
			at += int64(r.Intn(40)) // think pause
		case 1:
			base = uint64(r.Intn(1 << 14))
		default:
			at += int64(r.Intn(3))
		}
		kind := Read
		if r.Intn(3) == 0 {
			kind = Write
		}
		out[i] = arrival{
			at:  at,
			req: &Request{ID: uint64(i), Kind: kind, Sector: base + uint64(r.Intn(64))},
		}
	}
	return out
}

// runArrivals drives the controller over the arrival stream. With skip
// enabled, the feed loop advances with NextEventClock/SkipTo bounded by
// the next arrival time — exactly the contract the GPU driver uses.
func runArrivals(t *testing.T, c *Controller, arrivals []arrival, skip bool) {
	t.Helper()
	i := 0
	for i < len(arrivals) {
		// Advance to the next controller event or the next arrival,
		// whichever is sooner (the skipped clocks are inert for both).
		if skip {
			if target := c.NextEventClock(); target > c.Clock() {
				if na := arrivals[i].at; target > na {
					target = na
				}
				c.SkipTo(target)
			}
		}
		for i < len(arrivals) && arrivals[i].at <= c.Clock() {
			if !c.Enqueue(arrivals[i].req) {
				break // queue full: retry after ticking
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

// TestEventSkipBitIdenticalStats proves the event-skipping loop produces
// bit-identical results to the legacy per-clock loop — controller stats,
// bus energy stats (float-for-float), and both gap histograms — across
// policies, refresh modes, page policies, and the exact-data path.
func TestEventSkipBitIdenticalStats(t *testing.T) {
	smores := core.Scheme{Specification: core.VariableCode, Detection: core.Exhaustive}
	cases := []struct {
		name string
		cfg  Config
	}{
		{"baseline-refab", Config{Policy: BaselineMTA}},
		{"baseline-refpb", Config{Policy: BaselineMTA, Refresh: PerBank}},
		{"optimized-closedpage", Config{Policy: OptimizedMTA, Pages: ClosedPage}},
		{"smores-refab", Config{Policy: SMOREs, Scheme: smores}},
		{"smores-refpb-closedpage", Config{Policy: SMOREs, Scheme: smores,
			Refresh: PerBank, Pages: ClosedPage}},
		{"smores-conservative", Config{Policy: SMOREs,
			Scheme: core.Scheme{Specification: core.StaticCode, Detection: core.Conservative}}},
		{"smores-exactdata", func() Config {
			cfg := Config{Policy: SMOREs, Scheme: smores}
			cfg.Bus.ExactData = true
			return cfg
		}()},
		{"baseline-smallqueues", Config{Policy: BaselineMTA,
			ReadQueueCap: 4, WriteQueueCap: 4, WriteHi: 3, WriteLo: 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			const n = 3000
			legacy := newCtrl(t, tc.cfg)
			legacy.DisableEventSkip()
			skip := newCtrl(t, tc.cfg)

			runArrivals(t, legacy, randomArrivals(n, 42), false)
			runArrivals(t, skip, randomArrivals(n, 42), true)

			if legacy.Stats() != skip.Stats() {
				t.Errorf("controller stats diverge:\n legacy %+v\n skip   %+v",
					legacy.Stats(), skip.Stats())
			}
			if legacy.BusStats() != skip.BusStats() {
				t.Errorf("bus stats diverge:\n legacy %+v\n skip   %+v",
					legacy.BusStats(), skip.BusStats())
			}
			if !legacy.ReadGapHistogram().Equal(skip.ReadGapHistogram()) {
				t.Errorf("read gap histograms diverge:\n legacy %v\n skip   %v",
					legacy.ReadGapHistogram(), skip.ReadGapHistogram())
			}
			if !legacy.WriteGapHistogram().Equal(skip.WriteGapHistogram()) {
				t.Errorf("write gap histograms diverge:\n legacy %v\n skip   %v",
					legacy.WriteGapHistogram(), skip.WriteGapHistogram())
			}
			if legacy.Clock() != skip.Clock() {
				t.Errorf("final clocks diverge: legacy %d skip %d", legacy.Clock(), skip.Clock())
			}
		})
	}
}

// TestNextEventClockSkipsInertSpans sanity-checks that skipping actually
// engages (bit-identity alone would also pass if NextEventClock always
// returned "now" and the loop degraded to per-clock ticking): after a
// read's column command issues, the next event is its completion ~RL
// clocks out, and NextEventClock must jump there in one step.
func TestNextEventClockSkipsInertSpans(t *testing.T) {
	c := newCtrl(t, Config{Policy: BaselineMTA})
	if !c.Enqueue(&Request{ID: 1, Kind: Read, Sector: 7}) {
		t.Fatal("enqueue failed")
	}
	for i := 0; i < 64 && len(c.completions) == 0; i++ {
		c.Tick()
	}
	if len(c.completions) == 0 {
		t.Fatal("column command never issued")
	}
	target := c.NextEventClock()
	if jump := target - c.Clock(); jump < 3 {
		t.Errorf("NextEventClock jumped only %d clocks toward the completion at %d (now %d)",
			jump, c.completions[0].Done, c.Clock())
	}
	if !c.Drain(1 << 20) {
		t.Fatal("drain timed out")
	}
	c.Finish()
	if st := c.Stats(); st.ReadsServed != 1 {
		t.Fatalf("read not served: %+v", st)
	}
}

// BenchmarkDrainRefreshShadow measures the controller crossing an
// all-bank refresh shadow — the event-skipping loop's best case.
func BenchmarkDrainRefreshShadow(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c, err := New(Config{Policy: BaselineMTA})
		if err != nil {
			b.Fatal(err)
		}
		for j := 0; j < 64; j++ {
			c.Enqueue(&Request{ID: uint64(j), Kind: Read, Sector: uint64(j)})
			c.Tick()
		}
		if !c.Drain(1 << 20) {
			b.Fatal("drain timed out")
		}
	}
}
