package fault

import (
	"testing"

	"smores/internal/bus"
	"smores/internal/core"
	"smores/internal/edc"
	"smores/internal/floats"
	"smores/internal/mta"
	"smores/internal/pam4"
	"smores/internal/rng"
)

var _ bus.BurstHook = (*Injector)(nil)

// driveChannel sends bursts of random payloads through an exact-data
// channel with the injector installed, alternating MTA and the given
// sparse length, with idles between bursts (re-anchoring levels like the
// real controller does).
func driveChannel(t *testing.T, in *Injector, bursts int, codeLength int, seed uint64) *bus.Channel {
	t.Helper()
	ch := bus.New(bus.Config{ExactData: true, Fault: in})
	r := rng.New(seed)
	data := make([]byte, bus.BurstBytes)
	for i := 0; i < bursts; i++ {
		r.Fill(data)
		if err := ch.SendBurst(data, codeLength); err != nil {
			t.Fatal(err)
		}
		if ch.NeedsPostamble() {
			ch.Postamble()
		}
		ch.Idle(8)
	}
	return ch
}

func TestZeroRateIsClean(t *testing.T) {
	for _, model := range []Model{ModelUniform, ModelBursty} {
		in, err := New(Config{Model: model, Rate: 0, Seed: 1, EDC: true})
		if err != nil {
			t.Fatal(err)
		}
		driveChannel(t, in, 50, 0, 7)
		driveChannel(t, in, 50, 3, 8)
		s := in.Stats()
		if s.Injected != 0 || s.CorruptedBursts != 0 || s.Detected() != 0 || s.Silent != 0 {
			t.Fatalf("%v: zero rate injected errors: %+v", model, s)
		}
		if s.Bursts != 100 {
			t.Fatalf("%v: observed %d bursts, want 100", model, s.Bursts)
		}
		if s.Symbols == 0 {
			t.Fatalf("%v: no symbols observed", model)
		}
	}
}

func TestDeterministicSameSeed(t *testing.T) {
	run := func() Stats {
		in, err := New(Config{Model: ModelUniform, Rate: 0.01, Seed: 42, EDC: true})
		if err != nil {
			t.Fatal(err)
		}
		driveChannel(t, in, 200, 0, 9)
		driveChannel(t, in, 200, 4, 10)
		return in.Stats()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same seed diverged:\n%+v\n%+v", a, b)
	}
	if a.Injected == 0 {
		t.Fatal("rate 0.01 over 400 bursts should inject something")
	}
}

func TestConservationAllModels(t *testing.T) {
	for _, model := range []Model{ModelUniform, ModelEyeBiased, ModelBursty} {
		for _, edcOn := range []bool{false, true} {
			for _, codeLength := range []int{0, 3, 6} {
				in, err := New(Config{Model: model, Rate: 0.02, Seed: 5, EDC: edcOn})
				if err != nil {
					t.Fatal(err)
				}
				driveChannel(t, in, 300, codeLength, 11)
				s := in.Stats()
				if !s.Conserves() {
					t.Fatalf("%v edc=%v len=%d: conservation violated: %+v", model, edcOn, codeLength, s)
				}
				if s.CorruptedBursts == 0 {
					t.Fatalf("%v edc=%v len=%d: rate 0.02 should corrupt some bursts", model, edcOn, codeLength)
				}
				if !edcOn && s.CaughtEDC != 0 {
					t.Fatalf("%v len=%d: EDC layer fired with EDC off", model, codeLength)
				}
			}
		}
	}
}

func TestSparseDetectsMoreThanMTA(t *testing.T) {
	// The paper's restriction argument, quantified: the sparse codebook's
	// illegal sequences catch a larger share of corrupted bursts without
	// EDC than the dense MTA code does.
	rate := func(codeLength int) float64 {
		in, err := New(Config{Model: ModelUniform, Rate: 0.01, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		driveChannel(t, in, 2000, codeLength, 13)
		return in.Stats().DetectionRate()
	}
	mtaRate, sparseRate := rate(0), rate(3)
	if sparseRate <= mtaRate {
		t.Fatalf("4b3s detection %.3f should beat MTA %.3f", sparseRate, mtaRate)
	}
}

func TestEDCReducesSilentCorruption(t *testing.T) {
	run := func(edcOn bool) Stats {
		in, err := New(Config{Model: ModelUniform, Rate: 0.01, Seed: 17, EDC: edcOn})
		if err != nil {
			t.Fatal(err)
		}
		driveChannel(t, in, 3000, 0, 19)
		return in.Stats()
	}
	off, on := run(false), run(true)
	if off.Silent == 0 {
		t.Fatal("MTA without EDC should leak some silent corruption at 1% symbol error")
	}
	if on.Silent >= off.Silent {
		t.Fatalf("EDC should cut silent corruption: %d (on) vs %d (off)", on.Silent, off.Silent)
	}
	if on.CaughtEDC == 0 {
		t.Fatal("EDC layer never fired")
	}
}

func TestEDCPinCorruptionIsCaught(t *testing.T) {
	// Force errors only onto the EDC pin: a bijective symbol↔byte mapping
	// means any pin slip mismatches the recomputed payload CRC.
	for b := 0; b < 256; b++ {
		sym := edc.CRCSymbols(byte(b))
		if got := edc.CRCFromSymbols(sym); got != byte(b) {
			t.Fatalf("CRC symbol round-trip broke: %#02x → %#02x", b, got)
		}
		// Any single-symbol change alters the byte.
		for i := range sym {
			mut := sym
			mut[i] = otherLevel(sym[i], 0)
			if edc.CRCFromSymbols(mut) == byte(b) {
				t.Fatalf("pin symbol %d corruption left CRC byte %#02x unchanged", i, b)
			}
		}
	}
}

func TestBurstyErrorsAreCorrelated(t *testing.T) {
	// At matched mean rate, the bursty model concentrates its errors in
	// fewer bursts than the uniform model.
	corrupted := func(model Model) (bursts int64, injected int64) {
		in, err := New(Config{Model: model, Rate: 0.01, Seed: 23, BurstLen: 6})
		if err != nil {
			t.Fatal(err)
		}
		driveChannel(t, in, 3000, 0, 29)
		s := in.Stats()
		return s.CorruptedBursts, s.Injected
	}
	ub, ui := corrupted(ModelUniform)
	bb, bi := corrupted(ModelBursty)
	if bi == 0 || ui == 0 {
		t.Fatal("both models should inject at 1%")
	}
	// Errors per corrupted burst must be materially higher for bursty.
	uDensity := float64(ui) / float64(ub)
	bDensity := float64(bi) / float64(bb)
	if bDensity <= uDensity*1.5 {
		t.Fatalf("bursty density %.2f should exceed uniform %.2f by ≥1.5×", bDensity, uDensity)
	}
}

func TestEyeBiasedRateTracksTarget(t *testing.T) {
	in, err := New(Config{Model: ModelEyeBiased, Rate: 0.02, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	driveChannel(t, in, 4000, 0, 37)
	got := in.Stats().SymbolErrorRate()
	if got < 0.01 || got > 0.04 {
		t.Fatalf("realized symbol error rate %.4f far from target 0.02", got)
	}
}

func TestModelParseRoundTrip(t *testing.T) {
	for _, m := range []Model{ModelUniform, ModelEyeBiased, ModelBursty} {
		got, err := ParseModel(m.String())
		if err != nil || got != m {
			t.Fatalf("ParseModel(%q) = %v, %v", m.String(), got, err)
		}
	}
	if _, err := ParseModel("nope"); err == nil {
		t.Fatal("unknown model should error")
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{Rate: -0.1}); err == nil {
		t.Fatal("negative rate should be rejected")
	}
	if _, err := New(Config{Rate: 1}); err == nil {
		t.Fatal("rate 1 should be rejected")
	}
	if _, err := New(Config{Model: ModelBursty, Rate: 0.6}); err == nil {
		t.Fatal("bursty rate above bad-state slip should be rejected")
	}
	if _, err := New(Config{Model: ModelEyeBiased, Rate: 0}); err == nil {
		t.Fatal("eye model with neither rate nor sigma should be rejected")
	}
	if _, err := New(Config{Model: Model(99), Rate: 0.1}); err == nil {
		t.Fatal("unknown model should be rejected")
	}
}

func TestStatsAddAndHelpers(t *testing.T) {
	a := Stats{Bursts: 10, CorruptedBursts: 4, CaughtLegality: 1, CaughtCodebook: 1, CaughtEDC: 1, Silent: 1, Harmless: 1, Injected: 6, Symbols: 600}
	b := a
	b.Add(a)
	if b.Bursts != 20 || b.CorruptedBursts != 8 || b.Silent != 2 {
		t.Fatalf("Add broke: %+v", b)
	}
	if !a.Conserves() {
		t.Fatal("partitioned stats should conserve")
	}
	bad := a
	bad.Silent = 0
	if bad.Conserves() {
		t.Fatal("broken partition should not conserve")
	}
	if !floats.Eq(a.DetectionRate(), 0.75) || !floats.Eq(a.SilentRate(), 0.25) {
		t.Fatalf("rates wrong: %g %g", a.DetectionRate(), a.SilentRate())
	}
	if !floats.Eq(a.SymbolErrorRate(), 0.01) {
		t.Fatalf("symbol rate wrong: %g", a.SymbolErrorRate())
	}
	if s := a.String(); s == "" {
		t.Fatal("String should render")
	}
}

func TestAdjacentSlipBounds(t *testing.T) {
	for l := pam4.L0; l < pam4.NumLevels; l++ {
		for _, up := range []bool{true, false} {
			got := adjacentSlip(l, up)
			if got == l {
				t.Fatalf("slip from L%d must move", l)
			}
			if pam4.Delta(l, got) != 1 {
				t.Fatalf("slip from L%d landed %d levels away", l, pam4.Delta(l, got))
			}
		}
	}
	for l := pam4.L0; l < pam4.NumLevels; l++ {
		seen := map[pam4.Level]bool{}
		for k := 0; k < int(pam4.NumLevels)-1; k++ {
			v := otherLevel(l, k)
			if v == l || seen[v] {
				t.Fatalf("otherLevel(L%d, %d) = L%d invalid", l, k, v)
			}
			seen[v] = true
		}
	}
}

// TestReplayVerdictObserved drives a detected error and checks the
// injector sees the retransmission with replay=true.
func TestReplayVerdictObserved(t *testing.T) {
	in, err := New(Config{Model: ModelUniform, Rate: 0.3, Seed: 2, EDC: true})
	if err != nil {
		t.Fatal(err)
	}
	ch := bus.New(bus.Config{ExactData: true, Fault: in})
	data := make([]byte, bus.BurstBytes)
	rng.New(99).Fill(data)
	if err := ch.SendBurst(data, 3); err != nil {
		t.Fatal(err)
	}
	if err := ch.ReplayBurst(data, 3); err != nil {
		t.Fatal(err)
	}
	s := in.Stats()
	if s.Bursts != 2 || s.ReplayBursts != 1 {
		t.Fatalf("want 2 bursts / 1 replay, got %d / %d", s.Bursts, s.ReplayBursts)
	}
}

// The receiver model decodes a corrupted sparse burst into the
// injector's own buffer, so after warm-up OnBurst allocates nothing on
// that path either.
func TestOnBurstCorruptedSparseAllocFree(t *testing.T) {
	in, err := New(Config{Model: ModelUniform, Rate: 2e-3, Seed: 9, EDC: true})
	if err != nil {
		t.Fatal(err)
	}
	const codeLength = 4
	sc := core.DefaultFamily().ByLength(codeLength)
	data := make([]byte, bus.BurstBytes)
	rng.New(3).Fill(data)
	var pre [bus.Groups]mta.GroupState
	var tx [bus.Groups][]mta.Column
	for g := range pre {
		pre[g] = mta.IdleGroupState()
		st := pre[g]
		if tx[g], err = sc.AppendGroupBurst(nil, data[g*bus.GroupBurstBytes:(g+1)*bus.GroupBurstBytes], &st); err != nil {
			t.Fatal(err)
		}
	}
	bursts := func() {
		for i := 0; i < 500; i++ {
			in.OnBurst(data, codeLength, pre, tx, false)
		}
	}
	bursts() // grows the receive buffers
	before := in.Stats()
	allocs := testing.AllocsPerRun(1, bursts)
	after := in.Stats()
	if decoded := after.CaughtCodebook + after.CaughtEDC + after.Silent -
		(before.CaughtCodebook + before.CaughtEDC + before.Silent); decoded == 0 {
		t.Fatal("no corrupted burst reached the decoder")
	}
	if allocs != 0 {
		t.Fatalf("500 bursts allocated %.0f times", allocs)
	}
}
