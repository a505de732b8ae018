package bus

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"smores/internal/core"
	"smores/internal/mta"
	"smores/internal/obs"
	"smores/internal/pam4"
)

func approx(t *testing.T, name string, got, want, tolPct float64) {
	t.Helper()
	if math.Abs(got-want)/math.Abs(want)*100 > tolPct {
		t.Errorf("%s = %g, want %g (±%g%%)", name, got, want, tolPct)
	}
}

func randomSector(rng *rand.Rand) []byte {
	b := make([]byte, BurstBytes)
	rng.Read(b)
	return b
}

func TestChannelDefaults(t *testing.T) {
	ch := New(Config{MTALogicPerBit: -1, SparseLogicPerBit: -1})
	if ch.Family() == nil || ch.MTACodec() == nil {
		t.Fatal("defaults not filled")
	}
	if ch.NeedsPostamble() {
		t.Error("fresh channel should not need a postamble")
	}
	if ch.Stats().PerBit() != 0 || ch.Stats().Utilization() != 0 {
		t.Error("fresh stats should be zero")
	}
}

// TestMTAPerBitWithPostamble reproduces the paper's §IV-B numbers in
// expected mode: an isolated MTA burst plus postamble costs ≈900 fJ/bit
// on the wire; back-to-back MTA costs ≈575 fJ/bit.
func TestMTAPerBitWithPostamble(t *testing.T) {
	ch := New(Config{}) // zero logic energy: wire-only comparison
	if err := ch.SendBurst(nil, 0); err != nil {
		t.Fatal(err)
	}
	st := ch.Stats()
	approx(t, "MTA wire-only fJ/bit", st.PerBit(), 574.8, 2.5)

	if !ch.NeedsPostamble() {
		t.Fatal("MTA burst into idle must need a postamble")
	}
	ch.Postamble()
	st = ch.Stats()
	approx(t, "MTA+postamble fJ/bit", st.PerBit(), 900.2, 2.0)
	if st.Postambles != 1 {
		t.Errorf("postambles = %d", st.Postambles)
	}
}

func TestSparseBurstPerBit(t *testing.T) {
	ch := New(Config{})
	if err := ch.SendBurst(nil, 3); err != nil {
		t.Fatal(err)
	}
	// Wire-only 4b3s-3/DBI expectation ≈ 425.3 fJ/bit.
	approx(t, "4b3s-3/DBI fJ/bit", ch.Stats().PerBit(), 425.3, 1.0)
	if ch.NeedsPostamble() {
		t.Error("sparse burst must not need a postamble")
	}
	if ch.Stats().BusyUIs != 12 {
		t.Errorf("BusyUIs = %d, want 12", ch.Stats().BusyUIs)
	}
}

func TestLogicEnergyAccounting(t *testing.T) {
	ch := New(Config{MTALogicPerBit: -1, SparseLogicPerBit: -1})
	if err := ch.SendBurst(nil, 0); err != nil {
		t.Fatal(err)
	}
	if err := ch.SendBurst(nil, 3); err != nil {
		t.Fatal(err)
	}
	want := BurstBytes*8*DefaultMTALogicPerBit + BurstBytes*8*DefaultSparseLogicPerBit
	approx(t, "logic energy", ch.Stats().LogicEnergy, want, 1e-9)
}

func TestUnknownCodeLength(t *testing.T) {
	ch := New(Config{})
	if err := ch.SendBurst(nil, 2); err == nil {
		t.Error("length 2 should be rejected (not in family)")
	}
	if err := ch.SendBurst(nil, 9); err == nil {
		t.Error("length 9 should be rejected")
	}
}

func TestExactModeNeedsData(t *testing.T) {
	ch := New(Config{ExactData: true})
	if err := ch.SendBurst(nil, 0); err == nil {
		t.Error("exact MTA burst without data must error")
	}
	if err := ch.SendBurst(make([]byte, 16), 3); err == nil {
		t.Error("exact sparse burst with short data must error")
	}
}

// TestExactNo3DVUnderRandomInterleaving is the channel-level transition
// invariant: arbitrary mixes of MTA bursts, sparse bursts of every length,
// postambles and idles never produce a 3ΔV step on an encoded wire.
func TestExactNo3DVUnderRandomInterleaving(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	ch := New(Config{ExactData: true})
	lengths := []int{0, 0, 0, 3, 4, 5, 6, 7, 8} // bias toward MTA
	for step := 0; step < 3000; step++ {
		switch rng.Intn(4) {
		case 0, 1:
			n := lengths[rng.Intn(len(lengths))]
			if err := ch.SendBurst(randomSector(rng), n); err != nil {
				t.Fatal(err)
			}
		case 2:
			// Going idle requires a postamble after an MTA burst.
			if ch.NeedsPostamble() {
				ch.Postamble()
			}
			ch.Idle(int64(rng.Intn(40) + 1))
		case 3:
			if err := ch.SendBurst(randomSector(rng), 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	if v := ch.Stats().Violations; v != 0 {
		t.Fatalf("%d max-transition violations on encoded wires", v)
	}
	if ch.Stats().DataBits == 0 {
		t.Fatal("no data moved")
	}
}

// TestValidatorCatchesMissingPostamble makes sure the 3ΔV checker is not
// vacuous: MTA bursts that end at L3 and drop straight to idle must
// register violations.
func TestValidatorCatchesMissingPostamble(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ch := New(Config{ExactData: true})
	for trial := 0; trial < 400; trial++ {
		if err := ch.SendBurst(randomSector(rng), 0); err != nil {
			t.Fatal(err)
		}
		ch.Idle(4) // deliberately skip the postamble
		if ch.Stats().Violations > 0 {
			return // validator fired, as it must eventually
		}
	}
	t.Fatal("validator never fired despite 400 postamble-less idles")
}

// TestExpectedMatchesExact cross-validates the two accounting modes over
// an identical traffic pattern.
func TestExpectedMatchesExact(t *testing.T) {
	run := func(exact bool, seed int64) Stats {
		rng := rand.New(rand.NewSource(seed))
		ch := New(Config{ExactData: exact})
		for step := 0; step < 4000; step++ {
			n := 0
			switch r := rng.Intn(10); {
			case r < 6: // 60% back-to-back
				n = 0
			case r < 9:
				n = 3
			default:
				n = 4 + rng.Intn(5)
			}
			var data []byte
			if exact {
				data = randomSector(rng)
			} else {
				_ = randomSector(rng) // keep RNG streams aligned
			}
			if err := ch.SendBurst(data, n); err != nil {
				t.Fatal(err)
			}
			if rng.Intn(5) == 0 {
				if ch.NeedsPostamble() {
					ch.Postamble()
				}
				ch.Idle(8)
			}
		}
		return ch.Stats()
	}
	exact := run(true, 99)
	expect := run(false, 99)
	if exact.Violations != 0 {
		t.Fatalf("%d violations in exact run", exact.Violations)
	}
	if exact.DataBits != expect.DataBits || exact.MTABursts != expect.MTABursts ||
		exact.SparseBursts != expect.SparseBursts || exact.Postambles != expect.Postambles {
		t.Fatal("traffic patterns diverged between modes")
	}
	// Expected-energy mode ignores seam level-shifting and data noise;
	// agreement within 1% validates both paths.
	approx(t, "exact vs expected per-bit", exact.PerBit(), expect.PerBit(), 1.0)
}

func TestIdleAccounting(t *testing.T) {
	ch := New(Config{})
	ch.Idle(10)
	ch.Idle(0)
	ch.Idle(-5)
	if ch.Stats().IdleUIs != 10 {
		t.Errorf("IdleUIs = %d, want 10", ch.Stats().IdleUIs)
	}
	if err := ch.SendBurst(nil, 0); err != nil {
		t.Fatal(err)
	}
	util := ch.Stats().Utilization()
	approx(t, "utilization", util, 8.0/18.0, 1e-6)
}

// TestSeamAfterPostamble checks the physically important seam: after a
// postamble the wires sit at L1, and both MTA and sparse bursts must
// start safely from there.
func TestSeamAfterPostamble(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	ch := New(Config{ExactData: true})
	for i := 0; i < 50; i++ {
		if err := ch.SendBurst(randomSector(rng), 0); err != nil {
			t.Fatal(err)
		}
		ch.Postamble()
		ch.Idle(4)
		if err := ch.SendBurst(randomSector(rng), 3); err != nil {
			t.Fatal(err)
		}
		if err := ch.SendBurst(randomSector(rng), 0); err != nil {
			t.Fatal(err)
		}
	}
	if v := ch.Stats().Violations; v != 0 {
		t.Fatalf("%d violations across postamble seams", v)
	}
}

// TestSparseDirectlyAfterMTA exercises the level-shifting seam end to end:
// an MTA burst (possibly ending L3) followed immediately by sparse bursts.
func TestSparseDirectlyAfterMTA(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	fam := core.DefaultFamily()
	for _, n := range fam.Lengths() {
		ch := New(Config{ExactData: true})
		for i := 0; i < 200; i++ {
			if err := ch.SendBurst(randomSector(rng), 0); err != nil {
				t.Fatal(err)
			}
			if err := ch.SendBurst(randomSector(rng), n); err != nil {
				t.Fatal(err)
			}
		}
		if v := ch.Stats().Violations; v != 0 {
			t.Fatalf("length %d: %d violations", n, v)
		}
	}
}

func TestPostambleEnergyValue(t *testing.T) {
	ch := New(Config{})
	ch.Postamble()
	m := pam4.DefaultEnergyModel()
	want := float64(Groups*mta.GroupWires) * float64(PostambleUIs()) * m.PostambleWireUIEnergy()
	approx(t, "postamble energy", ch.Stats().PostambleEnergy, want, 1e-9)
}

// TestExactSteadyStateAllocFree pins the zero-alloc property of the
// exact-data hot path: after warm-up (column buffers grown, caches
// filled, tally taken), sending and replaying bursts, postambles and
// idling must not allocate — on a bare channel, with a profile attached,
// with a fault hook attached, and with a hook that draws per symbol as
// the uniform fault model does. This is what keeps exact-mode fleet
// runs off the garbage collector.
func TestExactSteadyStateAllocFree(t *testing.T) {
	for _, c := range []struct {
		name string
		cfg  Config
	}{
		{"bare", Config{ExactData: true}},
		{"profiled", Config{ExactData: true, Profile: obs.NewProfile()}},
		{"hooked", Config{ExactData: true, Fault: &recordingHook{}}},
		{"drawing", Config{ExactData: true, Fault: newDrawingHook(1e-2)}},
	} {
		ch := New(c.cfg)
		rng := rand.New(rand.NewSource(7))
		data := randomSector(rng)
		n := ch.Family().Lengths()[0]
		// Warm up: grow the column buffers and touch every path once.
		for i := 0; i < 4; i++ {
			for _, cl := range []int{core.MaxSparseSymbols, 0} {
				if err := ch.SendBurst(data, cl); err != nil {
					t.Fatal(err)
				}
				if err := ch.ReplayBurst(data, cl); err != nil {
					t.Fatal(err)
				}
			}
			ch.Postamble()
			ch.Idle(8)
		}
		for _, p := range []struct {
			name string
			fn   func()
		}{
			{"sparse", func() {
				if err := ch.SendBurst(data, n); err != nil {
					t.Fatal(err)
				}
			}},
			{"mta", func() { _ = ch.SendBurst(data, 0) }},
			{"sparse replay", func() { _ = ch.ReplayBurst(data, n) }},
			{"mta replay", func() { _ = ch.ReplayBurst(data, 0) }},
			{"idle", func() { ch.Postamble(); ch.Idle(4) }},
		} {
			if allocs := testing.AllocsPerRun(100, p.fn); allocs != 0 {
				t.Errorf("%s: %s path allocates %.1f times per op in steady state", c.name, p.name, allocs)
			}
		}
	}
}

// TestSharedDefaultsAreStable pins the construction memoization: the
// default model, family, and MTA codec are immutable, so New must hand
// every channel the same instances instead of rebuilding codebooks.
func TestSharedDefaultsAreStable(t *testing.T) {
	a, b := New(Config{}), New(Config{})
	if a.MTACodec() != b.MTACodec() {
		t.Error("default MTA codec not shared between channels")
	}
	if a.Family() != b.Family() {
		t.Error("default family not shared between channels")
	}
	if pam4.DefaultEnergyModel() != pam4.DefaultEnergyModel() {
		t.Error("default energy model not memoized")
	}
	if core.DefaultFamily() != core.DefaultFamily() {
		t.Error("default family not memoized")
	}
	// A custom model must still get its own codec, not the shared one.
	m, err := pam4.NewEnergyModel(pam4.DefaultDriver(), 900)
	if err != nil {
		t.Fatal(err)
	}
	if c := New(Config{Model: m}); c.MTACodec() == a.MTACodec() {
		t.Error("custom-model channel reused the default-model codec")
	}
}

// sendMix drives a channel through a random sequence of dense and sparse
// bursts, replays, postambles and idles. The same seed on two equal
// channels sends the same sequence.
func sendMix(t *testing.T, ch *Channel, seed int64) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	lengths := ch.Family().Lengths()
	for i := 0; i < 300; i++ {
		data := randomSector(r)
		cl := 0
		if r.Intn(2) == 0 {
			cl = lengths[r.Intn(len(lengths))]
		}
		if err := ch.SendBurst(data, cl); err != nil {
			t.Fatal(err)
		}
		if ch.exact && r.Intn(10) == 0 {
			if err := ch.ReplayBurst(data, cl); err != nil {
				t.Fatal(err)
			}
		}
		switch r.Intn(4) {
		case 0:
			if ch.NeedsPostamble() {
				ch.Postamble()
			}
			ch.Idle(int64(1 + r.Intn(12)))
		case 1:
			ch.Idle(UIsPerClock)
		}
	}
}

// A Reset channel accounts a burst sequence exactly as a new channel for
// its configuration does: statistics, attributed energy, recorded events
// and the hook's verdicts. Consecutive configurations switch the sparse
// family or the energy model, so an expected-energy memo kept across
// families would show in the wire energy.
func TestResetMatchesNewChannel(t *testing.T) {
	m900, err := pam4.NewEnergyModel(pam4.DefaultDriver(), 900)
	if err != nil {
		t.Fatal(err)
	}
	noDBI, err := core.NewFamily(pam4.DefaultEnergyModel(), core.FamilyConfig{Levels: 3})
	if err != nil {
		t.Fatal(err)
	}
	fam900, err := core.NewFamily(m900, core.DefaultFamilyConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfgs := []func() Config{
		func() Config { return Config{Profile: obs.NewProfile()} },
		func() Config { return Config{Family: noDBI, Profile: obs.NewProfile(), LevelShiftedIdle: true} },
		func() Config {
			return Config{Model: m900, Family: fam900, ExactData: true, Profile: obs.NewProfile(),
				MTALogicPerBit: -1, SparseLogicPerBit: -1, Fault: newDrawingHook(1e-2)}
		},
		func() Config { return Config{Model: m900, Family: fam900, Record: true} },
		func() Config { return Config{Model: m900, Profile: obs.NewProfile(), LevelShiftedIdle: true} },
		func() Config { return Config{ExactData: true, Record: true, Fault: &recordingHook{}} },
	}
	ch := New(cfgs[0]())
	for i := range cfgs {
		sendMix(t, ch, int64(i))
		next := cfgs[(i+1)%len(cfgs)]
		ch.Reset(next())
		fresh := New(next())
		sendMix(t, ch, 99)
		sendMix(t, fresh, 99)
		if !ch.Stats().Equal(fresh.Stats()) {
			t.Errorf("config %d: reset channel\n %+v\nnew channel\n %+v", i+1, ch.Stats(), fresh.Stats())
		}
		got, want := ch.DetachTally(), fresh.DetachTally()
		if !reflect.DeepEqual(got.Snapshot(), want.Snapshot()) {
			t.Errorf("config %d: attributed energy %.6g fJ, new channel %.6g fJ",
				i+1, got.Snapshot().TotalFJ, want.Snapshot().TotalFJ)
		}
		got.Publish(nil)
		want.Publish(nil)
		if !reflect.DeepEqual(ch.Events(), fresh.Events()) {
			t.Errorf("config %d: recorded events differ", i+1)
		}
		if ch.LastBurstVerdict() != fresh.LastBurstVerdict() || ch.NeedsPostamble() != fresh.NeedsPostamble() {
			t.Errorf("config %d: trailing state differs", i+1)
		}
	}
}
