package report

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"smores/internal/fault"
	"smores/internal/floats"
	"smores/internal/memctrl"
	"smores/internal/obs"
	"smores/internal/workload"
)

// requireIdentical asserts two sharded multichannel results are
// bit-identical: stats, per-channel stats, histograms, counters.
func requireIdentical(t *testing.T, tag string, a, b MultiResult) {
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
			seq, err := RunAppMultiChannel(p, s, channels, ShardOptions{Workers: 1})
			if err != nil {
				t.Fatalf("policy %d channels %d sequential: %v", pi, channels, err)
			}
			for _, workers := range []int{2, 4, 8} {
				parProf := obs.NewProfile()
				s.Profile = parProf
				par, err := RunAppMultiChannel(p, s, channels, ShardOptions{Workers: workers})
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
	seq, err := RunAppMultiChannel(p, spec, 4, ShardOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if seq.Fault.CorruptedBursts == 0 {
		t.Fatal("injector never fired — the test is vacuous")
	}
	par, err := RunAppMultiChannel(p, spec, 4, ShardOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, "faulted", seq, par)
}

// The sharded engine must uphold the multichannel physics contracts:
// striping balance, bit conservation, SMOREs savings, throughput
// scaling with channel count.
func TestShardedPhysics(t *testing.T) {
	p, _ := workload.ByName("srad")
	base, err := RunAppMultiChannel(p, RunSpec{
		Policy: memctrl.BaselineMTA, Accesses: 4000, Seed: 5,
	}, 4, ShardOptions{})
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
	one, err := RunAppMultiChannel(p, RunSpec{
		Policy: memctrl.BaselineMTA, Accesses: 4000, Seed: 5,
	}, 1, ShardOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if base.Clocks >= one.Clocks {
		t.Errorf("4 shards (%d clocks) not faster than 1 (%d)", base.Clocks, one.Clocks)
	}
	sm, err := RunAppMultiChannel(p, RunSpec{
		Policy:   memctrl.SMOREs,
		Scheme:   PolicySpecs(0, 0, false)[3].Scheme,
		Accesses: 4000, Seed: 5,
	}, 4, ShardOptions{})
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

// A one-channel run differs from RunApp in only two pinned ways (the
// shard package doc and docs/PERFORMANCE.md state them):
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
				sh, err := RunAppMultiChannel(p, spec, 1, ShardOptions{Workers: 1})
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
	if _, err := RunAppMultiChannel(p, RunSpec{Policy: memctrl.BaselineMTA, Accesses: 10}, 0, ShardOptions{}); err == nil {
		t.Error("zero channels must error")
	}
	bad := p
	bad.MSHRs = 0
	if mr, err := RunAppMultiChannel(bad, RunSpec{Accesses: 10}, 2, ShardOptions{}); err == nil {
		t.Error("invalid profile must error")
	} else if mr.Channels != 0 || mr.PerChannel != nil || mr.Reads != 0 {
		t.Errorf("error must come with the zero MultiResult, got %+v", mr)
	}
	if _, err := RunAppMultiChannel(p, RunSpec{Policy: memctrl.BaselineMTA}, 2, ShardOptions{}); err == nil {
		t.Error("zero access budget must error (generators are endless)")
	}
}

// The fleet scheduler must be worker-count invariant end to end: the
// exported JSON — every row of every app — is byte-identical between a
// sequential and a saturated pool, and errors surface as the lowest-
// indexed app with a zero-value result.
func TestFleetMultiChannelDeterministic(t *testing.T) {
	fleet := workload.Fleet()[:5]
	spec := PolicySpecs(800, 17, true)[2]
	render := func(workers int) ([]byte, MultiFleetResult) {
		fr, err := RunFleetAppsMultiChannel(fleet, spec, 3, ShardOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		if err := ExportMultiEvalJSON(&b, []MultiFleetResult{fr}); err != nil {
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

// Adding a profile's snapshot cells must reproduce merging the dense
// profile bit for bit — the fleet path relies on it to drop each
// shard's dense profile as soon as the shard's app finishes. The
// sources are fed energy-only, count-only and non-positive samples, and
// the destinations start non-empty.
func TestAddCellsMatchesMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	merged, added := obs.NewProfile(), obs.NewProfile()
	for _, dst := range []*obs.Profile{merged, added} {
		dst.Add(obs.PhaseSparsePayload, 1, obs.WireAgg, obs.LevelMix, obs.TransMix, 0.1, 3)
	}
	for src := 0; src < 4; src++ {
		p := obs.NewProfile()
		for k := 0; k < 300; k++ {
			fj := rng.Float64() * 100
			n := rng.Int63n(4)
			switch rng.Intn(5) {
			case 0:
				fj = 0
			case 1:
				fj = -fj
			}
			p.Add(obs.Phase(rng.Intn(int(obs.NumPhases))), rng.Intn(obs.NumProfileCodecs),
				rng.Intn(obs.ProfileWires+1), rng.Intn(obs.ProfileLevels+1),
				obs.TransClass(rng.Intn(int(obs.NumTransClasses))), fj, n)
		}
		merged.Merge(p)
		addCells(added, p.Snapshot().Cells)
	}
	want := merged.Snapshot().Cells
	if len(want) < 100 {
		t.Fatalf("only %d merged cells — the test is vacuous", len(want))
	}
	requireSameCells(t, "cells vs merge", want, added.Snapshot().Cells)
}

// The fleet path adds each shard's profile cells to spec.Profile only
// after every app has finished. At every worker count the result must
// equal, bit for bit, a reference that runs the apps one at a time
// through RunAppMultiChannel into one profile: the (app, channel) order
// in which shard profiles are merged. That reference must in turn equal
// merging every shard's dense profile in (app, channel) order.
func TestFleetMultiChannelProfileCells(t *testing.T) {
	fleet := workload.Fleet()[:4]
	faulty := PolicySpecs(500, 23, false)[3]
	faulty.Fault = &fault.Config{Model: fault.ModelUniform, Rate: 1e-3, EDC: true, Seed: 5}
	cases := []struct {
		name     string
		spec     RunSpec
		channels int
	}{
		{"expected", PolicySpecs(800, 17, true)[2], 3},
		{"exact-faults", faulty, 4},
	}
	for _, c := range cases {
		ref, dense := obs.NewProfile(), obs.NewProfile()
		for i, p := range fleet {
			s := c.spec
			s.Seed = DecorrelateSeed(c.spec.Seed, i)
			s.Profile = ref
			if _, err := RunAppMultiChannel(p, s, c.channels, ShardOptions{Workers: 1}); err != nil {
				t.Fatalf("%s: reference app %d: %v", c.name, i, err)
			}
			as, err := buildAppShards(p, s, c.channels, ShardOptions{})
			if err == nil {
				err = as.runUnits(1, nil)
			}
			if err != nil {
				t.Fatalf("%s: dense reference app %d: %v", c.name, i, err)
			}
			for _, sp := range as.profiles {
				dense.Merge(sp)
			}
		}
		want := ref.Snapshot().Cells
		if len(want) == 0 {
			t.Fatalf("%s: the reference profile is empty — the test is vacuous", c.name)
		}
		requireSameCells(t, c.name+" reference vs dense merge", dense.Snapshot().Cells, want)
		for _, workers := range []int{1, 2, 8} {
			tag := fmt.Sprintf("%s workers %d", c.name, workers)
			prof := obs.NewProfile()
			s := c.spec
			s.Profile = prof
			fr, err := RunFleetAppsMultiChannel(fleet, s, c.channels, ShardOptions{Workers: workers})
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

// A failing fleet returns the zero result and the lowest-indexed app's
// error at every worker count, and adds nothing to spec.Profile — even
// though the apps around the failures ran and profiled their shards.
func TestFleetMultiChannelErrorContract(t *testing.T) {
	fleet := append([]workload.Profile{}, workload.Fleet()[:5]...)
	for _, i := range []int{1, 3} {
		fleet[i].MSHRs = 0
	}
	for _, workers := range []int{1, 4} {
		prof := obs.NewProfile()
		spec := RunSpec{Policy: memctrl.BaselineMTA, Accesses: 100, Seed: 1, Profile: prof}
		fr, err := RunFleetAppsMultiChannel(fleet, spec, 2, ShardOptions{Workers: workers})
		if err == nil {
			t.Fatalf("workers %d: invalid apps must fail the fleet", workers)
		}
		if !strings.Contains(err.Error(), "fleet app 1:") {
			t.Errorf("workers %d: error %q does not name fleet app 1", workers, err)
		}
		if fr.Results != nil || fr.Label != "" || fr.Channels != 0 {
			t.Errorf("workers %d: error must come with the zero fleet result, got %+v", workers, fr)
		}
		if cells := prof.Snapshot().Cells; len(cells) != 0 {
			t.Errorf("workers %d: a failed fleet added %d cells to the profile", workers, len(cells))
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
	var mfrs []MultiFleetResult
	for _, spec := range PolicySpecs(400, 3, false)[:2] {
		fr, err := RunFleetAppsMultiChannel(fleet, spec, 2, ShardOptions{Workers: 2})
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
