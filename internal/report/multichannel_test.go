package report

import (
	"math"
	"testing"

	"smores/internal/bus"
	"smores/internal/fault"
	"smores/internal/floats"
)

// ChannelBalance distinguishes its degenerate shapes with sentinels:
// NaN when there are no channels to compare, 1 when every channel is
// idle (trivially balanced), +Inf when a busy channel sits next to an
// idle one, and the plain hi/lo ratio otherwise.
func TestChannelBalanceSentinels(t *testing.T) {
	ch := func(bits ...float64) MultiResult {
		var mr MultiResult
		for _, b := range bits {
			mr.PerChannel = append(mr.PerChannel, bus.Stats{DataBits: b})
		}
		return mr
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

// channelSpec must give every channel a decorrelated fault seed without
// touching the caller's config.
func TestChannelSpecDecorrelatesFaultSeeds(t *testing.T) {
	base := RunSpec{Fault: &fault.Config{Model: fault.ModelUniform, Rate: 1e-3, Seed: 42}}
	seen := map[uint64]bool{}
	for i := 0; i < 4; i++ {
		cs := channelSpec(base, i)
		if cs.Channel != i {
			t.Errorf("channel %d: Channel field = %d", i, cs.Channel)
		}
		if cs.Fault == base.Fault {
			t.Fatal("channelSpec must copy the fault config, not alias it")
		}
		if want := DecorrelateSeed(42, i); cs.Fault.Seed != want {
			t.Errorf("channel %d seed = %d, want %d", i, cs.Fault.Seed, want)
		}
		if seen[cs.Fault.Seed] {
			t.Errorf("channel %d reuses an earlier seed %d", i, cs.Fault.Seed)
		}
		seen[cs.Fault.Seed] = true
	}
	if base.Fault.Seed != 42 {
		t.Errorf("caller's config mutated: seed = %d", base.Fault.Seed)
	}
	if cs := channelSpec(RunSpec{}, 3); cs.Fault != nil || cs.Channel != 3 {
		t.Errorf("no-fault spec: %+v", cs)
	}
}
