package memctrl

import (
	"reflect"
	"testing"

	"smores/internal/bus"
	"smores/internal/core"
	"smores/internal/fault"
	"smores/internal/gddr6x"
	"smores/internal/obs"
	"smores/internal/stats"
)

// resetCase builds one configuration afresh on every call: fault
// injectors are stateful, so each controller gets its own.
type resetCase struct {
	name  string
	build func() (Config, *fault.Injector)
}

// resetCases spans every dimension Reset must rebuild: all five
// policies, expected and exact data, faults off, on, and with graceful
// degradation, open and closed pages, all-bank and per-bank refresh, and
// non-default gap buckets and timing. Each case differs from the next
// in several of them.
func resetCases(t *testing.T) []resetCase {
	variable := core.Scheme{Specification: core.VariableCode, Detection: core.Exhaustive}
	static := core.Scheme{Specification: core.StaticCode, Detection: core.Exhaustive}
	conservative := core.Scheme{Specification: core.StaticCode, Detection: core.Conservative}
	wide := gddr6x.DefaultTiming()
	wide.Banks, wide.BankGroups, wide.TRCD, wide.TREFI = 32, 8, 20, 3000
	plain := func(cfg Config) func() (Config, *fault.Injector) {
		return func() (Config, *fault.Injector) {
			cfg.Bus.Profile = obs.NewProfile()
			return cfg, nil
		}
	}
	faulty := func(cfg Config, fc fault.Config) func() (Config, *fault.Injector) {
		return func() (Config, *fault.Injector) {
			in, err := fault.New(fc)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Bus.ExactData, cfg.Bus.Profile, cfg.Fault = true, obs.NewProfile(), in
			return cfg, in
		}
	}
	return []resetCase{
		{"baseline/expected/open/refab", plain(Config{Policy: BaselineMTA})},
		{"optimized/exact/closed/refpb", plain(Config{Policy: OptimizedMTA, Pages: ClosedPage,
			Refresh: PerBank, Bus: bus.Config{ExactData: true}})},
		{"variable/faults/buckets9", faulty(Config{Policy: SMOREs, Scheme: variable, GapHistBuckets: 9},
			fault.Config{Model: fault.ModelUniform, Rate: 1e-3, Seed: 3, EDC: true})},
		{"static/expected/wide-timing/refpb", plain(Config{Policy: SMOREs, Scheme: static,
			Timing: wide, Refresh: PerBank})},
		{"conservative/degrading/closed", faulty(Config{Policy: SMOREs, Scheme: conservative, Pages: ClosedPage,
			Replay: ReplayConfig{DegradeThreshold: 0.05, DegradeWindow: 16}},
			fault.Config{Model: fault.ModelUniform, Rate: 2e-3, Seed: 5, EDC: true})},
		{"variable/exact/wide-timing/buckets33", plain(Config{Policy: SMOREs, Scheme: variable,
			Timing: wide, GapHistBuckets: 33, Bus: bus.Config{ExactData: true}})},
	}
}

// resetOutcome is everything a run exposes, compared bit for bit.
type resetOutcome struct {
	clock               int64
	degraded            bool
	st                  Stats
	bus                 bus.Stats
	readGaps, writeGaps *stats.Histogram
	tally               obs.ProfileSnapshot
	fault               fault.Stats
}

// TestResetMatchesNew leaves a controller mid-run under one
// configuration (requests queued, reads in flight, a tally attached, a
// completion callback set), Resets it to the next configuration and
// replays a traffic stream. Everything the run exposes must equal a
// fresh New controller's run of the same stream.
func TestResetMatchesNew(t *testing.T) {
	cases := resetCases(t)
	traffic := randomArrivals(700, 17)
	for i, a := range cases {
		b := cases[(i+1)%len(cases)]
		t.Run(a.name+"→"+b.name, func(t *testing.T) {
			cfgA, _ := a.build()
			c := newCtrl(t, cfgA)
			stale := false
			c.OnReadDone(func(*Request) { stale = true })
			runPartial(t, c, traffic[:400])
			if c.readQ.n+c.writeQ.n == 0 || len(c.completions) == 0 {
				t.Fatal("the first run left no queued or in-flight work to clear")
			}
			stale = false

			cfgB, inB := b.build()
			if err := c.Reset(cfgB); err != nil {
				t.Fatal(err)
			}
			runArrivals(t, c, traffic, true)
			got := outcome(t, c, inB)
			if stale {
				t.Error("Reset kept the first run's completion callback")
			}

			cfgF, inF := b.build()
			want := outcome(t, runFresh(t, cfgF, traffic), inF)
			compareOutcomes(t, got, want)
			if inF != nil && want.st.Replays == 0 {
				t.Error("the fault case replayed nothing")
			}
			if cfgF.Replay.DegradeThreshold > 0 && want.st.DegradedBursts == 0 {
				t.Error("the degradation case never degraded")
			}
		})
	}
}

// runPartial enqueues arrivals as runArrivals does but stops once they
// are all queued, leaving the controller mid-run.
func runPartial(t *testing.T, c *Controller, arrivals []arrival) {
	t.Helper()
	for i := 0; i < len(arrivals); {
		for i < len(arrivals) && arrivals[i].at <= c.Clock() && c.Enqueue(arrivals[i].req) {
			i++
		}
		c.Tick()
	}
}

func runFresh(t *testing.T, cfg Config, arrivals []arrival) *Controller {
	t.Helper()
	c := newCtrl(t, cfg)
	runArrivals(t, c, arrivals, true)
	return c
}

func outcome(t *testing.T, c *Controller, in *fault.Injector) resetOutcome {
	t.Helper()
	tally := c.DetachTally()
	o := resetOutcome{
		clock:     c.Clock(),
		degraded:  c.Degraded(),
		st:        c.Stats(),
		bus:       c.BusStats(),
		readGaps:  c.ReadGapHistogram(),
		writeGaps: c.WriteGapHistogram(),
		tally:     tally.Snapshot(),
	}
	tally.Publish(nil)
	if in != nil {
		o.fault = in.Stats()
	}
	return o
}

func compareOutcomes(t *testing.T, got, want resetOutcome) {
	t.Helper()
	if got.clock != want.clock || got.degraded != want.degraded {
		t.Errorf("clock %d degraded %v, fresh controller %d %v", got.clock, got.degraded, want.clock, want.degraded)
	}
	if got.st != want.st {
		t.Errorf("controller stats\n reset %+v\n fresh %+v", got.st, want.st)
	}
	if !got.bus.Equal(want.bus) {
		t.Errorf("bus stats\n reset %+v\n fresh %+v", got.bus, want.bus)
	}
	if !got.readGaps.Equal(want.readGaps) || !got.writeGaps.Equal(want.writeGaps) {
		t.Errorf("gap histograms\n reset %v / %v\n fresh %v / %v", got.readGaps, got.writeGaps, want.readGaps, want.writeGaps)
	}
	if !reflect.DeepEqual(got.tally, want.tally) {
		t.Errorf("tally snapshot differs: reset %.6g fJ in %d cells, fresh %.6g fJ in %d cells",
			got.tally.TotalFJ, len(got.tally.Cells), want.tally.TotalFJ, len(want.tally.Cells))
	}
	if got.fault != want.fault {
		t.Errorf("fault stats\n reset %+v\n fresh %+v", got.fault, want.fault)
	}
}
