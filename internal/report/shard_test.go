package report

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"smores/internal/fault"
	"smores/internal/floats"
	"smores/internal/gpu"
	"smores/internal/memctrl"
	"smores/internal/obs"
	"smores/internal/shard"
	"smores/internal/workload"
)

// requireIdentical asserts two sharded multichannel results are
// bit-identical: stats, per-channel stats, histograms, counters.
func requireIdentical(t *testing.T, tag string, a, b AppResult) {
	t.Helper()
	if !a.Bus.Equal(b.Bus) {
		t.Fatalf("%s: merged bus stats diverged:\n%+v\nvs\n%+v", tag, a.Bus, b.Bus)
	}
	if !a.Ctrl.Equal(b.Ctrl) {
		t.Fatalf("%s: merged controller stats diverged:\n%+v\nvs\n%+v", tag, a.Ctrl, b.Ctrl)
	}
	if len(a.PerChannel) != len(b.PerChannel) {
		t.Fatalf("%s: channel counts diverged (%d vs %d)", tag, len(a.PerChannel), len(b.PerChannel))
	}
	for i := range a.PerChannel {
		if !a.PerChannel[i].Equal(b.PerChannel[i]) {
			t.Fatalf("%s: channel %d bus stats diverged:\n%+v\nvs\n%+v",
				tag, i, a.PerChannel[i], b.PerChannel[i])
		}
	}
	if !a.ReadGaps.Equal(b.ReadGaps) || !a.WriteGaps.Equal(b.WriteGaps) {
		t.Fatalf("%s: gap histograms diverged", tag)
	}
	if !floats.Eq(a.PerBit, b.PerBit) {
		t.Fatalf("%s: per-bit energy diverged: %v vs %v", tag, a.PerBit, b.PerBit)
	}
	if a.Clocks != b.Clocks || a.Reads != b.Reads || a.Writes != b.Writes {
		t.Fatalf("%s: clocks/reads/writes diverged: %d/%d/%d vs %d/%d/%d",
			tag, a.Clocks, a.Reads, a.Writes, b.Clocks, b.Reads, b.Writes)
	}
	if a.Fault != b.Fault {
		t.Fatalf("%s: fault stats diverged:\n%+v\nvs\n%+v", tag, a.Fault, b.Fault)
	}
	if a.LLC != b.LLC {
		t.Fatalf("%s: LLC stats diverged: %+v vs %+v", tag, a.LLC, b.LLC)
	}
	if a.Label != b.Label {
		t.Fatalf("%s: labels diverged: %q vs %q", tag, a.Label, b.Label)
	}
}

// runChannels runs p over the given channel count as a one-app fleet,
// which runs it with spec.Seed and spreads its shards over a pool of
// the given size.
func runChannels(p workload.Profile, spec RunSpec, channels, workers int) (AppResult, error) {
	spec.Channels = channels
	fr, err := RunFleetApps([]workload.Profile{p}, spec, FleetOptions{Workers: workers})
	if err != nil {
		return AppResult{}, err
	}
	return fr.Results[0], nil
}

// The differential gate: for a fixed seed, the sharded engine must
// produce byte-identical results — stats, histograms, profile cells —
// at every worker count, across all 5 policies and several channel
// counts. The sequential run (workers=1) is the reference; any
// divergence means a shard leaked state or the merge order depends on
// scheduling. Because the waterfall and every JSON export are pure
// functions of these stats and cells, their identity follows.
func TestShardedDeterministicMatrix(t *testing.T) {
	p, ok := workload.ByName("bfs")
	if !ok {
		t.Fatal("no bfs app")
	}
	for pi, spec := range PolicySpecs(1200, 11, true) {
		for _, channels := range []int{2, 4, 8} {
			seqProf := obs.NewProfile()
			s := spec
			s.Profile = seqProf
			seq, err := runChannels(p, s, channels, 1)
			if err != nil {
				t.Fatalf("policy %d channels %d sequential: %v", pi, channels, err)
			}
			for _, workers := range []int{2, 4, 8} {
				parProf := obs.NewProfile()
				s.Profile = parProf
				par, err := runChannels(p, s, channels, workers)
				if err != nil {
					t.Fatalf("policy %d channels %d workers %d: %v", pi, channels, workers, err)
				}
				tag := fmt.Sprintf("policy %d channels %d workers %d", pi, channels, workers)
				requireIdentical(t, tag, seq, par)
				requireSameCells(t, tag+" profile", seqProf.Snapshot().Cells, parProf.Snapshot().Cells)
			}
		}
	}
}

// Exact-data mode with a fault injector exercises the stateful per-
// channel error processes; decorrelated seeds must keep the result
// worker-count-invariant too.
func TestShardedDeterministicWithFaults(t *testing.T) {
	p, _ := workload.ByName("srad")
	spec := RunSpec{
		Policy:   memctrl.SMOREs,
		Scheme:   PolicySpecs(0, 0, false)[2].Scheme,
		Accesses: 1500,
		Seed:     13,
		Fault:    &fault.Config{Model: fault.ModelUniform, Rate: 1e-3, EDC: true, Seed: 99},
	}
	seq, err := runChannels(p, spec, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if seq.Fault.CorruptedBursts == 0 {
		t.Fatal("injector never fired — the test is vacuous")
	}
	par, err := runChannels(p, spec, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, "faulted", seq, par)
}

// A multi-channel Chrome trace is the same at every worker count, when
// the ring holds every event and when it wraps: the channels trace
// privately and the runner appends them in channel order, so neither
// the interleaving nor the events a wrapping ring keeps depend on
// which shard finishes first.
func TestShardedChromeTraceWorkerInvariant(t *testing.T) {
	p, _ := workload.ByName("bfs")
	spec := PolicySpecs(3000, 1, false)[2]
	chrome := func(capacity, workers int) ([]byte, uint64) {
		s := spec
		s.Tracer = obs.NewTracer(capacity)
		if _, err := runChannels(p, s, 4, workers); err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		if err := s.Tracer.WriteChromeTrace(&b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes(), s.Tracer.Dropped()
	}
	for _, c := range []struct {
		capacity int
		wraps    bool
	}{{1 << 15, false}, {4000, true}} {
		seq, dropped := chrome(c.capacity, 1)
		if (dropped > 0) != c.wraps {
			t.Fatalf("capacity %d dropped %d events; the case wants wraps=%v", c.capacity, dropped, c.wraps)
		}
		par, _ := chrome(c.capacity, 3)
		if !bytes.Equal(seq, par) {
			t.Errorf("capacity %d: the trace at 3 workers differs from 1 worker's at byte %d",
				c.capacity, firstByteDiff(seq, par))
		}
	}
}

// firstByteDiff returns the offset of the first byte where a and b
// differ, or the shorter length when one is a prefix of the other.
func firstByteDiff(a, b []byte) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// The sharded engine must uphold the multichannel physics contracts:
// striping balance, bit conservation, SMOREs savings, throughput
// scaling with channel count.
func TestShardedPhysics(t *testing.T) {
	p, _ := workload.ByName("srad")
	base, err := RunApp(p, RunSpec{
		Policy: memctrl.BaselineMTA, Accesses: 4000, Seed: 5, Channels: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if base.Channels != 4 || len(base.PerChannel) != 4 {
		t.Fatalf("channel bookkeeping wrong: %+v", base)
	}
	if base.Reads == 0 || base.PerBit <= 0 {
		t.Fatal("no traffic simulated")
	}
	if bal := base.ChannelBalance(); bal > 1.3 {
		t.Errorf("channel imbalance %.2f, want ≤1.3", bal)
	}
	var bits float64
	for _, st := range base.PerChannel {
		bits += st.DataBits
	}
	if want := float64(base.Reads+base.Writes) * 32 * 8; !floats.Near(bits, want, 1e-6) {
		t.Errorf("bits accounted %.0f, want %.0f", bits, want)
	}
	if !floats.Eq(bits, base.Bus.DataBits) {
		t.Errorf("merged DataBits %.0f disagrees with per-channel sum %.0f", base.Bus.DataBits, bits)
	}
	one, err := RunApp(p, RunSpec{
		Policy: memctrl.BaselineMTA, Accesses: 4000, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if base.Clocks >= one.Clocks {
		t.Errorf("4 shards (%d clocks) not faster than 1 (%d)", base.Clocks, one.Clocks)
	}
	sm, err := RunApp(p, RunSpec{
		Policy:   memctrl.SMOREs,
		Scheme:   PolicySpecs(0, 0, false)[3].Scheme,
		Accesses: 4000, Seed: 5, Channels: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sm.PerBit >= base.PerBit {
		t.Errorf("sharded SMOREs (%.1f) not cheaper than baseline (%.1f)", sm.PerBit, base.PerBit)
	}
	if sm.Label != "smores(exhaustive/static)" {
		t.Errorf("label = %q", sm.Label)
	}
}

// A one-channel run of the multi-channel engine differs from RunApp's
// one-channel engine in only two pinned ways (the shard package doc and
// docs/PERFORMANCE.md state them). RunApp never selects the sharded
// engine at one channel, so the test calls it directly:
//
//   - Without the LLC every statistic — bus stats, gap histograms,
//     reads/writes, fault stats, controller counters — matches, except
//     that Clocks is exactly +1 (the unit's driver has no access budget
//     and spends one clock finding the end of its stream) and the
//     controller's Clock is +1 or equal.
//   - With the LLC, traffic and data bits match but timing and energy
//     need not: the plan filters LLC hits out before replay, so the
//     driver clock each hit costs RunApp never elapses.
func TestShardedSingleChannelMatchesRunAppTraffic(t *testing.T) {
	faulty := &fault.Config{Model: fault.ModelUniform, Rate: 1e-3, EDC: true, Seed: 7}
	cases := []struct {
		app   string
		fault *fault.Config
	}{{"bert", nil}, {"bfs", nil}, {"srad", faulty}}
	llcTimingDiffers := false
	for _, useLLC := range []bool{false, true} {
		for pi, spec := range PolicySpecs(1500, 21, useLLC) {
			for _, c := range cases {
				p, _ := workload.ByName(c.app)
				spec.Fault = c.fault
				tag := fmt.Sprintf("%s policy %d llc=%v", c.app, pi, useLLC)
				app, err := RunApp(p, spec)
				if err != nil {
					t.Fatalf("%s: RunApp: %v", tag, err)
				}
				sh, err := runSharded(new(shard.Planner), p, spec, 1, 1, nil)
				if err != nil {
					t.Fatalf("%s: one channel: %v", tag, err)
				}
				if sh.Reads != app.Reads || sh.Writes != app.Writes {
					t.Errorf("%s: traffic diverged: %d/%d vs %d/%d", tag, sh.Reads, sh.Writes, app.Reads, app.Writes)
				}
				if !floats.Eq(sh.Bus.DataBits, app.Bus.DataBits) {
					t.Errorf("%s: data bits diverged: %.0f vs %.0f", tag, sh.Bus.DataBits, app.Bus.DataBits)
				}
				if sh.Label != app.Label {
					t.Errorf("%s: labels diverged: %q vs %q", tag, sh.Label, app.Label)
				}
				if useLLC {
					llcTimingDiffers = llcTimingDiffers || sh.Clocks != app.Clocks
					continue
				}
				if !sh.Bus.Equal(app.Bus) {
					t.Errorf("%s: bus stats diverged:\n%+v\nvs\n%+v", tag, sh.Bus, app.Bus)
				}
				if !sh.ReadGaps.Equal(app.ReadGaps) || !sh.WriteGaps.Equal(app.WriteGaps) {
					t.Errorf("%s: gap histograms diverged", tag)
				}
				if sh.Fault != app.Fault {
					t.Errorf("%s: fault stats diverged:\n%+v\nvs\n%+v", tag, sh.Fault, app.Fault)
				}
				if c.fault != nil && sh.Fault.CorruptedBursts == 0 {
					t.Errorf("%s: injector never fired — the fault case is vacuous", tag)
				}
				if sh.Clocks != app.Clocks+1 {
					t.Errorf("%s: clocks %d, want RunApp's %d + 1", tag, sh.Clocks, app.Clocks)
				}
				if d := sh.Ctrl.Clock - app.Ctrl.Clock; d != 0 && d != 1 {
					t.Errorf("%s: controller clock differs by %d, want 0 or +1", tag, d)
				}
				ctrl := sh.Ctrl
				ctrl.Clock = app.Ctrl.Clock
				if !ctrl.Equal(app.Ctrl) {
					t.Errorf("%s: controller stats diverged beyond Clock:\n%+v\nvs\n%+v", tag, sh.Ctrl, app.Ctrl)
				}
			}
		}
	}
	if !llcTimingDiffers {
		t.Error("with the LLC every one-channel run matched RunApp's clocks; " +
			"the documented LLC-hit timing difference is gone — update the docs and this test")
	}
}

func TestShardedValidation(t *testing.T) {
	p, _ := workload.ByName("bfs")
	if _, err := RunApp(p, RunSpec{Policy: memctrl.BaselineMTA, Accesses: 10, Channels: -1}); err == nil {
		t.Error("a negative channel count must error")
	}
	if _, err := RunFleetApps([]workload.Profile{p}, RunSpec{Accesses: 10, Channels: -2}, FleetOptions{}); err == nil {
		t.Error("a fleet with a negative channel count must error")
	}
	zero, err := RunApp(p, RunSpec{Policy: memctrl.BaselineMTA, Accesses: 10})
	if err != nil || zero.Channels != 1 || zero.PerChannel != nil {
		t.Errorf("zero channels must run one channel with no per-channel detail: %+v, %v", zero, err)
	}
	bad := p
	bad.MSHRs = 0
	if r, err := RunApp(bad, RunSpec{Accesses: 10, Channels: 2}); err == nil {
		t.Error("invalid profile must error")
	} else if r.Channels != 0 || r.PerChannel != nil || r.Reads != 0 {
		t.Errorf("error must come with the zero AppResult, got %+v", r)
	}
	if _, err := RunApp(p, RunSpec{Policy: memctrl.BaselineMTA, Channels: 2}); err == nil {
		t.Error("zero access budget must error (generators are endless)")
	}
}

// The fleet scheduler must be worker-count invariant end to end: the
// exported JSON — every row of every app — is byte-identical between a
// sequential and a saturated pool.
func TestFleetMultiChannelDeterministic(t *testing.T) {
	fleet := workload.Fleet()[:5]
	spec := PolicySpecs(800, 17, true)[2]
	spec.Channels = 3
	render := func(workers int) ([]byte, FleetResult) {
		fr, err := RunFleetApps(fleet, spec, FleetOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		if err := ExportEvalJSON(&b, []FleetResult{fr}); err != nil {
			t.Fatal(err)
		}
		return b.Bytes(), fr
	}
	seqJSON, seqFR := render(1)
	parJSON, parFR := render(8)
	if !bytes.Equal(seqJSON, parJSON) {
		t.Fatalf("fleet JSON depends on worker count:\n%s\nvs\n%s", seqJSON, parJSON)
	}
	if len(seqFR.Results) != len(fleet) {
		t.Fatalf("got %d results, want %d", len(seqFR.Results), len(fleet))
	}
	for i := range seqFR.Results {
		requireIdentical(t, fmt.Sprintf("fleet app %d", i), seqFR.Results[i], parFR.Results[i])
	}
	if seqFR.Label == "" || seqFR.Label != parFR.Label {
		t.Fatalf("fleet labels diverged: %q vs %q", seqFR.Label, parFR.Label)
	}
}

// Each fleet worker keeps one front end — LLC and plan streams — for
// every app it takes. Nothing may leak from one app into the next: at
// every worker count, each app's result must equal RunApp of that app
// alone, seeded as the fleet seeds it. The apps' working sets
// are shrunk so that they share lines: a line left in the cache by one
// app would turn some of the next app's misses into hits.
func TestFleetMultiChannelMatchesSingleApps(t *testing.T) {
	fleet := append([]workload.Profile(nil), workload.Fleet()[:6]...)
	for i := range fleet {
		fleet[i].WorkingSetSectors = 1 << 14
	}
	spec := PolicySpecs(1000, 29, true)[3]
	spec.Channels = 4
	want := make([]AppResult, len(fleet))
	for i, p := range fleet {
		s := spec
		s.Seed = DecorrelateSeed(spec.Seed, i)
		r, err := RunApp(p, s)
		if err != nil {
			t.Fatalf("app %d alone: %v", i, err)
		}
		want[i] = r
	}
	for _, workers := range []int{1, 3} {
		fr, err := RunFleetApps(fleet, spec, FleetOptions{Workers: workers})
		if err != nil {
			t.Fatalf("workers %d: %v", workers, err)
		}
		for i := range fleet {
			requireIdentical(t, fmt.Sprintf("workers %d app %d", workers, i), want[i], fr.Results[i])
		}
	}
}

// A fleet worker allocates its front end once, not once per app: six
// apps on one worker allocate less than two LLC backing arrays in all,
// where a cache per app would take six.
func TestFleetMultiChannelReusesFrontEnd(t *testing.T) {
	allocated := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	var err error
	llcBytes := allocated(func() { _, err = gpu.NewLLC(gpu.DefaultLLCConfig()) })
	if err != nil {
		t.Fatal(err)
	}
	fleet := workload.Fleet()[:6]
	spec := PolicySpecs(2000, 1, true)[2]
	spec.Channels = 4
	fleetBytes := allocated(func() {
		_, err = RunFleetApps(fleet, spec, FleetOptions{Workers: 1})
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("the fleet allocated %d bytes; one LLC is %d", fleetBytes, llcBytes)
	if fleetBytes >= 2*llcBytes {
		t.Fatalf("a %d-app fleet on one worker allocated %d bytes, want under two LLCs (%d)",
			len(fleet), fleetBytes, 2*llcBytes)
	}
}

// requireSameCells asserts two profile snapshots hold the same cells,
// energies bit for bit.
func requireSameCells(t *testing.T, tag string, want, got []obs.ProfileCell) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d profile cells, want %d", tag, len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if g.Phase != w.Phase || g.Codec != w.Codec || g.Wire != w.Wire || g.Level != w.Level || g.Trans != w.Trans {
			t.Fatalf("%s: cell %d is %+v, want %+v", tag, i, g, w)
		}
		if !floats.Eq(g.FJ, w.FJ) || g.Count != w.Count {
			t.Fatalf("%s: cell %d holds %v fJ over %d symbols, want %v fJ over %d",
				tag, i, g.FJ, g.Count, w.FJ, w.Count)
		}
	}
}

// The fleet publishes each app's channel tallies into spec.Profile in
// (app, channel) order, whatever order the apps finish in. At every
// worker count the cells must equal, bit for bit, a reference that runs
// the apps one at a time through RunApp into one profile. That
// reference must in turn equal publishing each shard's tally by hand,
// in (app, channel) order.
func TestFleetMultiChannelProfileCells(t *testing.T) {
	fleet := workload.Fleet()[:4]
	faulty := PolicySpecs(500, 23, false)[3]
	faulty.Fault = &fault.Config{Model: fault.ModelUniform, Rate: 1e-3, EDC: true, Seed: 5}
	faulty.Channels = 4
	expected := PolicySpecs(800, 17, true)[2]
	expected.Channels = 3
	cases := []struct {
		name string
		spec RunSpec
	}{
		{"expected", expected},
		{"exact-faults", faulty},
	}
	for _, c := range cases {
		ref, byHand := obs.NewProfile(), obs.NewProfile()
		for i, p := range fleet {
			s := c.spec
			s.Seed = DecorrelateSeed(c.spec.Seed, i)
			s.Profile = ref
			if _, err := RunApp(p, s); err != nil {
				t.Fatalf("%s: reference app %d: %v", c.name, i, err)
			}
			tallies := make([]*obs.Profile, s.Channels)
			s.Profile = obs.NewProfile() // makes the shards tally; never published into
			if _, err := runSharded(new(shard.Planner), p, s, s.Channels, 1, tallies); err != nil {
				t.Fatalf("%s: by-hand reference app %d: %v", c.name, i, err)
			}
			for _, tl := range tallies {
				tl.Publish(byHand)
			}
		}
		want := ref.Snapshot().Cells
		if len(want) == 0 {
			t.Fatalf("%s: the reference profile is empty — the test is vacuous", c.name)
		}
		requireSameCells(t, c.name+" reference vs by-hand publishes", byHand.Snapshot().Cells, want)
		for _, workers := range []int{1, 2, 8} {
			tag := fmt.Sprintf("%s workers %d", c.name, workers)
			prof := obs.NewProfile()
			s := c.spec
			s.Profile = prof
			fr, err := RunFleetApps(fleet, s, FleetOptions{Workers: workers})
			if err != nil {
				t.Fatalf("%s: %v", tag, err)
			}
			if c.spec.Fault != nil {
				var fired int64
				for _, r := range fr.Results {
					fired += r.Fault.CorruptedBursts
				}
				if fired == 0 {
					t.Fatalf("%s: injector never fired — the fault case is vacuous", tag)
				}
			}
			requireSameCells(t, tag, want, prof.Snapshot().Cells)
		}
	}
}

// Profiling a sharded run must cost only the tallies each shard hands
// over, and those come from a pool: eight expected-mode tallies are
// about 7 KB, one exact-mode tally 282 KB. The profile itself is built
// before the measurement, and a warm-up run fills the pools.
func TestShardedProfileAllocatesOnlyCells(t *testing.T) {
	p, _ := workload.ByName("bfs")
	spec := PolicySpecs(2000, 1, true)[2]
	spec.Channels = 8
	prof := obs.NewProfile()
	run := func(prof *obs.Profile) uint64 {
		s := spec
		s.Profile = prof
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := RunApp(p, s); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	run(obs.NewProfile())
	bare, profiled := run(nil), run(prof)
	if len(prof.Snapshot().Cells) == 0 {
		t.Fatal("the profiled run left the profile empty — the test is vacuous")
	}
	extra := int64(profiled) - int64(bare)
	t.Logf("profiling allocated %d bytes more than the bare run", extra)
	if extra >= 256<<10 {
		t.Fatalf("profiling allocated %d bytes more than the bare run (%d vs %d), want under 256 KiB",
			extra, profiled, bare)
	}
}

// A failing multi-channel fleet follows the one-channel contract
// (TestRunFleetPartialFailure): at every worker count it returns the
// lowest-indexed app's error, keeps the completed results in fleet
// order with the label of the last, and publishes exactly the
// successful apps, in fleet order — the cells equal those of the
// successful apps run one at a time — though the failed apps' other
// shards ran and tallied.
func TestFleetMultiChannelErrorContract(t *testing.T) {
	fleet := append([]workload.Profile{}, workload.Fleet()[:5]...)
	for _, i := range []int{1, 3} {
		fleet[i].MSHRs = 0
	}
	spec := RunSpec{Policy: memctrl.SMOREs, Scheme: PolicySpecs(0, 0, false)[2].Scheme,
		Accesses: 300, Seed: 1, Channels: 2}
	ref := obs.NewProfile()
	var want []AppResult
	for _, i := range []int{0, 2, 4} {
		s := spec
		s.Seed = DecorrelateSeed(spec.Seed, i)
		s.Profile = ref
		r, err := RunApp(fleet[i], s)
		if err != nil {
			t.Fatalf("reference app %d: %v", i, err)
		}
		want = append(want, r)
	}
	for _, workers := range []int{1, 4} {
		prof := obs.NewProfile()
		s := spec
		s.Profile = prof
		fr, err := RunFleetApps(fleet, s, FleetOptions{Workers: workers})
		if err == nil {
			t.Fatalf("workers %d: invalid apps must fail the fleet", workers)
		}
		if !strings.Contains(err.Error(), "fleet app 1:") {
			t.Errorf("workers %d: error %q does not name fleet app 1", workers, err)
		}
		if len(fr.Results) != len(want) || fr.Channels != 2 {
			t.Fatalf("workers %d: kept %d results over %d channels, want %d over 2",
				workers, len(fr.Results), fr.Channels, len(want))
		}
		for k := range want {
			requireIdentical(t, fmt.Sprintf("workers %d result %d", workers, k), want[k], fr.Results[k])
		}
		if fr.Label != want[len(want)-1].Label {
			t.Errorf("workers %d: label %q not from the last successful result", workers, fr.Label)
		}
		requireSameCells(t, fmt.Sprintf("workers %d profile", workers), ref.Snapshot().Cells, prof.Snapshot().Cells)
		if err := ReconcileProfile(prof, fr); err != nil {
			t.Errorf("workers %d: %v", workers, err)
		}
	}
}

// The render surface must not panic on empty input and must include
// every scheme row.
func TestRenderMultiChannelSummary(t *testing.T) {
	if s := RenderMultiChannelSummary(nil); s != "" {
		t.Errorf("empty summary = %q", s)
	}
	fleet := workload.Fleet()[:2]
	var mfrs []FleetResult
	for _, spec := range PolicySpecs(400, 3, false)[:2] {
		spec.Channels = 2
		fr, err := RunFleetApps(fleet, spec, FleetOptions{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		mfrs = append(mfrs, fr)
	}
	out := RenderMultiChannelSummary(mfrs)
	for _, fr := range mfrs {
		if !bytes.Contains([]byte(out), []byte(fr.Label)) {
			t.Errorf("summary missing scheme %q:\n%s", fr.Label, out)
		}
	}
}
