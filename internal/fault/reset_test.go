package fault

import (
	"bytes"
	"crypto/sha256"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// TestInjectorResetMatchesNew leaves an injector mid-run under one
// configuration (statistics counted, the generator advanced, and a
// bursty injector with a byte group in its bad state), Resets it to the
// next and drives a schedule through it. Every verdict and received column (hashed as
// TestFaultDigest hashes them) and the Stats must equal a fresh New
// injector's. The configurations cycle through the uniform, eye and
// bursty models with the EDC pin on and off, bursty to bursty included.
func TestInjectorResetMatchesNew(t *testing.T) {
	cfgs := []Config{
		{Model: ModelUniform, Rate: digestRate, Seed: 1, EDC: true},
		{Model: ModelEyeBiased, Rate: digestRate, Seed: 2},
		{Model: ModelBursty, Rate: digestRate, Seed: 3, EDC: true, BurstLen: 6},
		{Model: ModelBursty, Rate: 2 * digestRate, Seed: 4},
		{Model: ModelUniform, Rate: 2 * digestRate, Seed: 5},
		{Model: ModelEyeBiased, Rate: digestRate, Seed: 6, EDC: true},
		{Model: ModelBursty, Rate: digestRate, Seed: 7},
	}
	in, err := New(cfgs[len(cfgs)-1])
	if err != nil {
		t.Fatal(err)
	}
	run := func(in *Injector) ([]byte, Stats) {
		h := sha256.New()
		driveFaultSchedule(t, in, h, rand.New(rand.NewSource(99)), 300)
		s := in.Stats()
		hashFaultStats(h, s)
		return h.Sum(nil), s
	}
	for i, cfg := range cfgs {
		// Leave the injector mid-run, a bursty one with a byte group in
		// its bad state.
		for n := 0; n == 0 || in.cfg.Model == ModelBursty && !slices.Contains(in.geBad[:], true); n++ {
			if n > 1000 {
				t.Fatalf("case %d: no byte group entered the bad state", i)
			}
			driveFaultSchedule(t, in, sha256.New(), rand.New(rand.NewSource(int64(1000*i+n))), 60)
		}
		if in.Stats().Injected == 0 {
			t.Fatalf("case %d: the first run injected nothing to clear", i)
		}
		if err := in.Reset(cfg); err != nil {
			t.Fatal(err)
		}
		gotSum, gotStats := run(in)
		fresh, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		wantSum, wantStats := run(fresh)
		if gotStats != wantStats || !bytes.Equal(gotSum, wantSum) {
			t.Errorf("%v/edc=%v: a Reset injector's run differs from a fresh one's:\ngot  %+v\nwant %+v",
				cfg.Model, cfg.EDC, gotStats, wantStats)
		}
		if gotStats.Injected == 0 {
			t.Errorf("%v/edc=%v: the compared run injected nothing", cfg.Model, cfg.EDC)
		}
	}

	// A Reset to an invalid configuration fails and changes nothing.
	before := *in
	if err := in.Reset(Config{Model: ModelBursty, Rate: 0.7}); err == nil {
		t.Fatal("Reset accepted a bursty rate above the bad-state slip")
	}
	if !reflect.DeepEqual(*in, before) {
		t.Fatal("a failed Reset changed the injector")
	}
}
