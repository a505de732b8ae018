package eyesim

import (
	"math"
	"testing"

	"smores/internal/codec"
	"smores/internal/core"
	"smores/internal/dbi"
	"smores/internal/mta"
	"smores/internal/pam4"
	"smores/internal/rng"
)

func analyzer(t *testing.T) *Analyzer {
	t.Helper()
	a, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err != nil {
		t.Errorf("zero config should default: %v", err)
	}
	bad := DefaultConfig()
	bad.CouplingFrac = 0.7
	if _, err := New(bad); err == nil {
		t.Error("huge coupling must be rejected")
	}
	bad = DefaultConfig()
	bad.SupplyNoiseOhms = -1
	if _, err := New(bad); err == nil {
		t.Error("negative impedance must be rejected")
	}
	bad = DefaultConfig()
	bad.Driver.LegOhms = -1
	if _, err := New(bad); err == nil {
		t.Error("bad driver must be rejected")
	}
}

// streamColumns builds a column stream by encoding random data with the
// given per-burst encoder.
func mtaStream(t *testing.T, bursts int) (mta.GroupState, []mta.Column) {
	t.Helper()
	c := mta.New(pam4.DefaultEnergyModel())
	r := rng.New(3)
	st := mta.IdleGroupState()
	var cols []mta.Column
	for i := 0; i < bursts; i++ {
		var data [mta.GroupDataWires]byte
		r.Fill(data[:])
		bc := c.EncodeGroupColumns(data, &st)
		cols = append(cols, bc[:]...)
	}
	return mta.IdleGroupState(), cols
}

func rawPAM4Stream(t *testing.T, uis int) (mta.GroupState, []mta.Column) {
	t.Helper()
	// Unconstrained PAM4: the dbi package's plain codec (no MTA).
	c := dbi.NewPAM4Codec(false, pam4.DefaultEnergyModel())
	r := rng.New(4)
	data := make([]byte, 2*uis)
	r.Fill(data)
	cols, err := c.EncodeGroupBurst(data)
	if err != nil {
		t.Fatal(err)
	}
	return mta.IdleGroupState(), cols
}

func sparseStream(t *testing.T, bursts int) (mta.GroupState, []mta.Column) {
	t.Helper()
	fam := core.DefaultFamily()
	sc := fam.ByLength(3)
	r := rng.New(5)
	st := mta.IdleGroupState()
	var cols []mta.Column
	for i := 0; i < bursts; i++ {
		data := make([]byte, 16)
		r.Fill(data)
		cs, err := sc.EncodeGroupBurst(data, &st)
		if err != nil {
			t.Fatal(err)
		}
		cols = append(cols, cs...)
	}
	return mta.IdleGroupState(), cols
}

// TestMTACapsSwingAt2DV reproduces the paper's §II argument numerically:
// raw PAM4 produces 3ΔV swings; MTA and sparse streams never do, and the
// worst victim eye with the full noise model orders raw below both.
func TestMTACapsSwingAt2DV(t *testing.T) {
	a := analyzer(t)

	seed, raw := rawPAM4Stream(t, 2000)
	rawRep := a.Analyze(seed, raw)
	if rawRep.MaxSwingDV != 3 {
		t.Errorf("raw PAM4 max swing = %dΔV, expected the full 3ΔV", rawRep.MaxSwingDV)
	}

	seed, mtaCols := mtaStream(t, 500)
	mtaRep := a.Analyze(seed, mtaCols)
	if mtaRep.MaxSwingDV > 2 {
		t.Errorf("MTA max swing = %dΔV, must be ≤2", mtaRep.MaxSwingDV)
	}

	seed, sparse := sparseStream(t, 250)
	spRep := a.Analyze(seed, sparse)
	if spRep.MaxSwingDV > 2 {
		t.Errorf("sparse max swing = %dΔV, must be ≤2", spRep.MaxSwingDV)
	}

	if !(rawRep.WorstEyeMV < mtaRep.WorstEyeMV) {
		t.Errorf("worst eye: raw %.1f mV should be worse than MTA %.1f mV",
			rawRep.WorstEyeMV, mtaRep.WorstEyeMV)
	}
	if !(rawRep.WorstEyeMV < spRep.WorstEyeMV) {
		t.Errorf("worst eye: raw %.1f mV should be worse than sparse %.1f mV",
			rawRep.WorstEyeMV, spRep.WorstEyeMV)
	}
	t.Logf("worst eye: raw %.1f | MTA %.1f | 4b3s %.1f mV (nominal step 225)",
		rawRep.WorstEyeMV, mtaRep.WorstEyeMV, spRep.WorstEyeMV)
	t.Logf("mean switching: raw %.1f | MTA %.1f | 4b3s %.1f mA",
		rawRep.MeanSwitchMA, mtaRep.MeanSwitchMA, spRep.MeanSwitchMA)
}

// TestCrosstalkOnlyOrdering isolates the coupling mechanism the paper's
// restriction targets: with supply noise excluded, the sparse codes are
// no worse than MTA (both cap aggressor swings at 2ΔV), and raw PAM4 is
// strictly worse.
func TestCrosstalkOnlyOrdering(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SupplyNoiseOhms = 0
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	seed, raw := rawPAM4Stream(t, 2000)
	rawRep := a.Analyze(seed, raw)
	seed, mtaCols := mtaStream(t, 500)
	mtaRep := a.Analyze(seed, mtaCols)
	seed, sparse := sparseStream(t, 250)
	spRep := a.Analyze(seed, sparse)

	if !(rawRep.WorstEyeMV < mtaRep.WorstEyeMV) {
		t.Errorf("crosstalk-only worst eye: raw %.1f !< MTA %.1f", rawRep.WorstEyeMV, mtaRep.WorstEyeMV)
	}
	if spRep.WorstEyeMV < mtaRep.WorstEyeMV-1 {
		t.Errorf("crosstalk-only worst eye: sparse %.1f materially below MTA %.1f",
			spRep.WorstEyeMV, mtaRep.WorstEyeMV)
	}
	// Mean eye: sparse streams transition less often per wire (long runs
	// of L0), so their average eye is the widest.
	if !(spRep.MeanEyeMV > rawRep.MeanEyeMV) {
		t.Errorf("mean eye: sparse %.1f !> raw %.1f", spRep.MeanEyeMV, rawRep.MeanEyeMV)
	}
	t.Logf("crosstalk-only worst eye: raw %.1f | MTA %.1f | 4b3s %.1f mV",
		rawRep.WorstEyeMV, mtaRep.WorstEyeMV, spRep.WorstEyeMV)
}

func TestSwingCountsSum(t *testing.T) {
	a := analyzer(t)
	seed, cols := mtaStream(t, 100)
	rep := a.Analyze(seed, cols)
	var total int64
	for _, c := range rep.SwingCounts {
		total += c
	}
	if want := int64(len(cols) * mta.GroupDataWires); total != want {
		t.Errorf("swing samples %d, want %d", total, want)
	}
	if rep.SwingCounts[3] != 0 {
		t.Error("MTA stream recorded a 3ΔV swing")
	}
	if rep.UIs != len(cols) {
		t.Errorf("UIs = %d", rep.UIs)
	}
}

func TestEmptyStream(t *testing.T) {
	a := analyzer(t)
	rep := a.Analyze(mta.IdleGroupState(), nil)
	if rep.UIs != 0 || rep.MaxSwingDV != 0 || rep.MeanEyeMV != 0 {
		t.Errorf("empty report: %+v", rep)
	}
}

func TestWorstCaseAggressorEye(t *testing.T) {
	a := analyzer(t)
	eye2 := a.WorstCaseAggressorEye(2)
	eye3 := a.WorstCaseAggressorEye(3)
	if eye3 >= eye2 {
		t.Errorf("3ΔV worst case (%.1f mV) should be worse than 2ΔV (%.1f mV)", eye3, eye2)
	}
	// The closed-form bound must dominate anything observed in streams.
	seed, cols := mtaStream(t, 300)
	rep := a.Analyze(seed, cols)
	if rep.WorstEyeMV < eye2-1e-9 {
		t.Errorf("observed eye %.1f mV below the 2ΔV analytic bound %.1f mV", rep.WorstEyeMV, eye2)
	}
}

func TestDBIWireInclusion(t *testing.T) {
	cfg := DefaultConfig()
	cfg.IncludeDBIWire = true
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	seed, cols := mtaStream(t, 100)
	rep := a.Analyze(seed, cols)
	// The DBI wire carries unconstrained PAM4 MSBs: full swings appear.
	if rep.MaxSwingDV != 3 {
		t.Errorf("with the DBI wire included, max swing = %dΔV, expected 3 (it is unencoded)", rep.MaxSwingDV)
	}
	var total int64
	for _, c := range rep.SwingCounts {
		total += c
	}
	if want := int64(len(cols) * mta.GroupWires); total != want {
		t.Errorf("swing samples %d, want %d", total, want)
	}
}

func TestMeanEyeBelowNominal(t *testing.T) {
	a := analyzer(t)
	seed, cols := mtaStream(t, 200)
	rep := a.Analyze(seed, cols)
	nominal := 225.0
	if rep.MeanEyeMV >= nominal || rep.MeanEyeMV < nominal*0.5 {
		t.Errorf("mean eye %.1f mV implausible against nominal %.0f", rep.MeanEyeMV, nominal)
	}
	if math.IsInf(rep.WorstEyeMV, 1) {
		t.Error("worst eye not computed")
	}
}

// TestLowSwitchingStrategyReducesActivity ties the codec extension to a
// measurable signal-integrity effect: the switching-aware codebooks carry
// the same energy but toggle less, which this analyzer can see.
func TestLowSwitchingStrategyReducesActivity(t *testing.T) {
	a := analyzer(t)
	run := func(strategy codec.Strategy) Report {
		book, err := codec.Generate(codec.Spec{InputBits: 4, OutputSymbols: 5, Levels: 3, Strategy: strategy},
			pam4.DefaultEnergyModel())
		if err != nil {
			t.Fatal(err)
		}
		sc, err := core.NewSparseGroupCodec(book, false, pam4.DefaultEnergyModel())
		if err != nil {
			t.Fatal(err)
		}
		r := rng.New(21)
		st := mta.IdleGroupState()
		var cols []mta.Column
		for i := 0; i < 400; i++ {
			data := make([]byte, 16)
			r.Fill(data)
			cs, err := sc.EncodeGroupBurst(data, &st)
			if err != nil {
				t.Fatal(err)
			}
			cols = append(cols, cs...)
		}
		return a.Analyze(mta.IdleGroupState(), cols)
	}
	le := run(codec.LowestEnergy)
	ls := run(codec.LowSwitching)
	t.Logf("mean switching: lowest-energy %.2f mA vs low-switching %.2f mA", le.MeanSwitchMA, ls.MeanSwitchMA)
	if ls.MeanSwitchMA >= le.MeanSwitchMA {
		t.Errorf("low-switching codebook did not reduce switching current: %.2f vs %.2f",
			ls.MeanSwitchMA, le.MeanSwitchMA)
	}
}
