package report

import (
	"math"
	"testing"

	"smores/internal/bus"
	"smores/internal/fault"
	"smores/internal/floats"
)

// ChannelBalance distinguishes its degenerate shapes with sentinels:
// NaN when there is no per-channel detail to compare (a one-channel
// result keeps none), 1 when every channel is idle (trivially
// balanced), +Inf when a busy channel sits next to an idle one, and the
// plain hi/lo ratio otherwise.
func TestChannelBalanceSentinels(t *testing.T) {
	ch := func(bits ...float64) AppResult {
		var r AppResult
		for _, b := range bits {
			r.PerChannel = append(r.PerChannel, bus.Stats{DataBits: b})
		}
		return r
	}
	if bal := ch().ChannelBalance(); !math.IsNaN(bal) {
		t.Errorf("no channels: got %v, want NaN", bal)
	}
	if bal := ch(0, 0, 0).ChannelBalance(); !floats.Eq(bal, 1) {
		t.Errorf("all idle: got %v, want 1", bal)
	}
	if bal := ch(1024, 0).ChannelBalance(); !math.IsInf(bal, 1) {
		t.Errorf("idle next to busy: got %v, want +Inf", bal)
	}
	if bal := ch(3000, 1000, 1500).ChannelBalance(); !floats.Eq(bal, 3) {
		t.Errorf("skewed: got %v, want 3", bal)
	}
	if bal := ch(2048, 2048).ChannelBalance(); !floats.Eq(bal, 1) {
		t.Errorf("balanced: got %v, want 1", bal)
	}
}

// Every channel's controller carries its channel id, and its injector a
// decorrelated fault seed — channel 0 the configured one — without the
// caller's config being touched.
func TestChannelSpecDecorrelatesFaultSeeds(t *testing.T) {
	base := RunSpec{Fault: &fault.Config{Model: fault.ModelUniform, Rate: 1e-3, Seed: 42}}
	seen := map[uint64]bool{}
	for i := 0; i < 4; i++ {
		if got := base.controllerConfig(i).Channel; got != i {
			t.Errorf("channel %d: controller channel id = %d", i, got)
		}
		_, in, err := new(runStack).controller(base, i)
		if err != nil {
			t.Fatal(err)
		}
		seed := in.Config().Seed
		if want := DecorrelateSeed(42, i); seed != want {
			t.Errorf("channel %d seed = %d, want %d", i, seed, want)
		}
		if seen[seed] {
			t.Errorf("channel %d reuses an earlier seed %d", i, seed)
		}
		seen[seed] = true
	}
	if base.Fault.Seed != 42 {
		t.Errorf("caller's config mutated: seed = %d", base.Fault.Seed)
	}
	if _, in, err := new(runStack).controller(RunSpec{}, 3); err != nil || in != nil {
		t.Errorf("no-fault spec built injector %v (err %v)", in, err)
	}
}
