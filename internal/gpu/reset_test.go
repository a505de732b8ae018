package gpu

import (
	"testing"

	"smores/internal/bus"
	"smores/internal/core"
	"smores/internal/memctrl"
	"smores/internal/rng"
)

// driverOutcome is everything a driver run exposes, compared bit for
// bit.
type driverOutcome struct {
	res   RunResult
	st    memctrl.Stats
	clock int64
	bus   bus.Stats
}

func (o driverOutcome) equal(p driverOutcome) bool {
	return o.res == p.res && o.st.Equal(p.st) && o.clock == p.clock && o.bus.Equal(p.bus)
}

func runOutcome(t *testing.T, d *Driver, ctrl *memctrl.Controller) driverOutcome {
	t.Helper()
	res, err := d.Run()
	if err != nil {
		t.Fatal(err)
	}
	return driverOutcome{res: res, st: ctrl.Stats(), clock: ctrl.Clock(), bus: ctrl.BusStats()}
}

// TestDriverResetMatchesNew leaves a driver mid-run, with reads in
// flight and a writeback the full write queue turned away, Resets its
// controller and then the driver to the next configuration, and runs a
// stream to the end. The run must equal a fresh NewDriver's over a fresh
// controller. The configurations go from no LLC to the default cache,
// to a small one (reusing the default's storage), to the small one
// again and back to none, so every way the inline cache's storage can
// be kept or dropped is crossed.
func TestDriverResetMatchesNew(t *testing.T) {
	small := LLCConfig{SizeBytes: 8192, LineBytes: 128, SectorBytes: 32, Ways: 4}
	def := DefaultLLCConfig()
	cfgs := []DriverConfig{
		{MSHRs: 16, MaxAccesses: 2000},
		{MSHRs: 24, LLC: &def, MaxAccesses: 2500},
		{MSHRs: 8, LLC: &small, MaxAccesses: 3000},
		{MSHRs: 32, LLC: &small, MaxAccesses: 2000},
		{MSHRs: 12, MaxAccesses: 2500},
	}
	ctrlCfg := memctrl.Config{Policy: memctrl.SMOREs,
		Scheme: core.Scheme{Specification: core.VariableCode, Detection: core.Exhaustive}}
	// A stream of reads, then writes to distinct lines of one set of
	// either cache: the reads stay in flight while the writes fill the
	// write queue, and each write past the set's ways evicts a dirty
	// line.
	var burst []Access
	for i := 0; i < 64; i++ {
		burst = append(burst, Access{Sector: uint64(i * 97)})
	}
	stride := uint64(def.Sets() * def.SectorsPerLine())
	for i := 0; i < 400; i++ {
		burst = append(burst, Access{Sector: uint64(i) * stride, Write: true})
	}
	stream := func() Generator { return &randGen{r: rng.New(21), ws: 1 << 15, wfrac: 0.35, think: 2} }

	ctrl, err := memctrl.New(ctrlCfg)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDriver(cfgs[0], ctrl, &sliceGen{accesses: burst})
	if err != nil {
		t.Fatal(err)
	}
	for i, next := range cfgs {
		prev := cfgs[(i+len(cfgs)-1)%len(cfgs)]
		name := llcName(prev) + "→" + llcName(next)
		// Leave the driver mid-run on the burst.
		for n := 0; d.inflight == 0 || len(d.pendingWB) == 0; n++ {
			if n > 100000 {
				t.Fatalf("%s: the burst left no reads in flight beside a backpressured writeback", name)
			}
			d.cycle(true)
		}

		if err := ctrl.Reset(ctrlCfg); err != nil {
			t.Fatal(err)
		}
		if err := d.Reset(next, ctrl, stream()); err != nil {
			t.Fatal(err)
		}
		got := runOutcome(t, d, ctrl)

		fresh, err := memctrl.New(ctrlCfg)
		if err != nil {
			t.Fatal(err)
		}
		fd, err := NewDriver(next, fresh, stream())
		if err != nil {
			t.Fatal(err)
		}
		if want := runOutcome(t, fd, fresh); !got.equal(want) {
			t.Errorf("%s: a Reset driver's run differs from a fresh one's:\ngot  %+v\nwant %+v", name, got, want)
		}

		// Start the next case's burst on this driver under this config.
		if err := ctrl.Reset(ctrlCfg); err != nil {
			t.Fatal(err)
		}
		if err := d.Reset(next, ctrl, &sliceGen{accesses: burst}); err != nil {
			t.Fatal(err)
		}
	}
}

func llcName(c DriverConfig) string {
	switch {
	case c.LLC == nil:
		return "nollc"
	case c.LLC.SizeBytes == DefaultLLCConfig().SizeBytes:
		return "llc6M"
	}
	return "llc8K"
}

// A driver Reset with an invalid cache configuration fails and keeps
// its previous run's state.
func TestDriverResetRejectsBadLLC(t *testing.T) {
	ctrl := newController(t, memctrl.BaselineMTA, core.Scheme{})
	small := LLCConfig{SizeBytes: 8192, LineBytes: 128, SectorBytes: 32, Ways: 4}
	d, err := NewDriver(DriverConfig{MSHRs: 8, LLC: &small}, ctrl, &sliceGen{})
	if err != nil {
		t.Fatal(err)
	}
	bad := LLCConfig{SizeBytes: 1000, LineBytes: 128, SectorBytes: 32, Ways: 4}
	if err := d.Reset(DriverConfig{LLC: &bad}, ctrl, nil); err == nil {
		t.Fatal("Reset accepted an invalid cache")
	}
	if d.cfg.MSHRs != 8 || d.llc != &d.cache || d.cache.cfg != small {
		t.Fatalf("a failed Reset changed the driver: %+v", d.cfg)
	}
}
