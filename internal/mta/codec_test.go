package mta

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"smores/internal/pam4"
)

func approx(t *testing.T, name string, got, want, tolPct float64) {
	t.Helper()
	if math.Abs(got-want)/math.Abs(want)*100 > tolPct {
		t.Errorf("%s = %g, want %g (±%g%%)", name, got, want, tolPct)
	}
}

func TestTableProperties(t *testing.T) {
	c := New(pam4.DefaultEnergyModel())
	table := c.Table()
	if len(table) != TableSize {
		t.Fatalf("table has %d entries, want %d", len(table), TableSize)
	}
	seen := make(map[uint32]bool)
	m := pam4.DefaultEnergyModel()
	prevE := -1.0
	for v, s := range table {
		if s.Len() != SeqSymbols {
			t.Fatalf("entry %d has %d symbols", v, s.Len())
		}
		if seen[s.Packed()] {
			t.Fatalf("duplicate sequence %v", s)
		}
		seen[s.Packed()] = true
		if s.First() == pam4.L3 {
			t.Errorf("entry %d (%v) starts with L3", v, s)
		}
		if s.MaxInternalDelta() > pam4.MaxTransition {
			t.Errorf("entry %d (%v) has a 3ΔV transition", v, s)
		}
		if e := m.SeqEnergy(s); e < prevE {
			t.Errorf("table not in ascending energy order at %d", v)
		} else {
			prevE = e
		}
	}
	if table[0].String() != "0000" {
		t.Errorf("cheapest entry = %v, want 0000", table[0])
	}
}

// Default is one shared codec, the standard table under the default
// energy model.
func TestDefaultIsShared(t *testing.T) {
	c := Default()
	if Default() != c {
		t.Fatal("Default built a second codec")
	}
	if c.Model() != pam4.DefaultEnergyModel() || c.Variant() != DropHighest11 {
		t.Fatalf("Default has model %p and variant %v", c.Model(), c.Variant())
	}
	want := New(pam4.DefaultEnergyModel()).Table()
	for v, s := range c.Table() {
		if s != want[v] {
			t.Fatalf("entry %d: Default sends %v, New %v", v, s, want[v])
		}
	}
}

// TestDropHighestBeatsDropLowest pins the paper's §II-B claim: discarding
// the lowest-energy 11 sequences instead of the highest-energy 11 costs
// about 2% more energy.
func TestDropHighestBeatsDropLowest(t *testing.T) {
	m := pam4.DefaultEnergyModel()
	std := New(m)
	abl, err := NewVariant(m, DropLowest11)
	if err != nil {
		t.Fatal(err)
	}
	overhead := abl.ExpectedPerBit()/std.ExpectedPerBit() - 1
	// The paper quotes ≈2%; our wire-energy model measures ≈6% (the
	// paper's figure likely dilutes over additional fixed I/O energy).
	// The load-bearing claim is that drop-highest is strictly better.
	if overhead < 0.01 || overhead > 0.12 {
		t.Errorf("drop-lowest-11 overhead = %.2f%%, expected within (1%%,12%%)", overhead*100)
	}
	t.Logf("drop-lowest-11 overhead: %.2f%% (paper: ≈2%%)", overhead*100)
}

func TestNewVariantUnknown(t *testing.T) {
	if _, err := NewVariant(pam4.DefaultEnergyModel(), Variant(99)); err == nil {
		t.Error("unknown variant must error")
	}
	if Variant(99).String() == "" || DropHighest11.String() != "drop-highest-11" {
		t.Error("variant naming broken")
	}
}

// TestExpectedPerBitMatchesPaper pins the MTA baseline energy against the
// paper's 574.8 fJ/bit (steady-state back-to-back traffic, no postamble,
// no logic energy).
func TestExpectedPerBitMatchesPaper(t *testing.T) {
	c := New(pam4.DefaultEnergyModel())
	got := c.ExpectedPerBit()
	t.Logf("MTA expected fJ/bit = %.1f (paper: 574.8)", got)
	approx(t, "MTA fJ/bit", got, 574.8, 2.5)
	// MTA must cost more than raw PAM4 (the paper's 8.7% overhead band).
	overhead := got/pam4.DefaultEnergyModel().PAM4PerBit() - 1
	if overhead < 0.04 || overhead > 0.13 {
		t.Errorf("MTA overhead vs raw PAM4 = %.1f%%, paper says ≈8.7%%", overhead*100)
	}
	t.Logf("MTA overhead vs raw PAM4: %.1f%% (paper: 8.7%%)", overhead*100)
}

func TestEncodeWireSeamSafety(t *testing.T) {
	c := New(pam4.DefaultEnergyModel())
	for prev := pam4.L0; prev < pam4.NumLevels; prev++ {
		for v := 0; v < TableSize; v++ {
			s, last := c.EncodeWire(uint8(v), prev)
			if pam4.Delta(prev, s.First()) > pam4.MaxTransition {
				t.Fatalf("prev=%v data=%d: seam transition %v→%v is 3ΔV", prev, v, prev, s.First())
			}
			if s.MaxInternalDelta() > pam4.MaxTransition {
				t.Fatalf("prev=%v data=%d: internal 3ΔV in %v", prev, v, s)
			}
			if last != s.Last() {
				t.Fatalf("returned trailing level %v != %v", last, s.Last())
			}
		}
	}
}

func TestWireRoundTripAllSeams(t *testing.T) {
	c := New(pam4.DefaultEnergyModel())
	for prev := pam4.L0; prev < pam4.NumLevels; prev++ {
		for v := 0; v < TableSize; v++ {
			s, _ := c.EncodeWire(uint8(v), prev)
			got, ok := c.DecodeWire(s, prev)
			if !ok || got != uint8(v) {
				t.Fatalf("roundtrip failed: prev=%v v=%d got=%d ok=%v", prev, v, got, ok)
			}
		}
	}
}

func TestDecodeWireRejects(t *testing.T) {
	c := New(pam4.DefaultEnergyModel())
	if _, ok := c.DecodeWire(pam4.MakeSeq(pam4.L0, pam4.L0), pam4.L0); ok {
		t.Error("accepted wrong-length sequence")
	}
	// A sequence in the 139-space but dropped from the table: the most
	// expensive eligible sequence (3333 is ineligible; find one by probing
	// an expensive pattern that was discarded).
	if _, ok := c.DecodeWire(pam4.MakeSeq(pam4.L2, pam4.L3, pam4.L3, pam4.L3), pam4.L0); ok {
		t.Error("accepted a discarded high-energy sequence")
	}
}

func TestEncodeWirePanicsOn8Bits(t *testing.T) {
	c := New(pam4.DefaultEnergyModel())
	defer func() {
		if recover() == nil {
			t.Error("expected panic for 8-bit value")
		}
	}()
	c.EncodeWire(128, pam4.L0)
}

// TestStreamingWireNo3DV drives a long stream of random beats through one
// wire and checks that no 3ΔV transition ever appears, including across
// sequence seams.
func TestStreamingWireNo3DV(t *testing.T) {
	c := New(pam4.DefaultEnergyModel())
	rng := rand.New(rand.NewSource(7))
	prev := IdleLevel
	var last pam4.Level = IdleLevel
	for i := 0; i < 5000; i++ {
		s, nl := c.EncodeWire(uint8(rng.Intn(TableSize)), prev)
		for j := 0; j < s.Len(); j++ {
			if pam4.Delta(last, s.At(j)) > pam4.MaxTransition {
				t.Fatalf("3ΔV at beat %d symbol %d: %v→%v", i, j, last, s.At(j))
			}
			last = s.At(j)
		}
		prev = nl
	}
}

// TestSteadyStateEnergyMonteCarlo cross-checks the closed-form
// ExpectedSeqEnergy against a long simulated stream.
func TestSteadyStateEnergyMonteCarlo(t *testing.T) {
	m := pam4.DefaultEnergyModel()
	c := New(m)
	rng := rand.New(rand.NewSource(11))
	prev := IdleLevel
	const n = 200000
	var total float64
	for i := 0; i < n; i++ {
		s, nl := c.EncodeWire(uint8(rng.Intn(TableSize)), prev)
		total += m.SeqEnergy(s)
		prev = nl
	}
	approx(t, "MC seq energy", total/n, c.ExpectedSeqEnergy(), 0.5)
}

func TestInversionProbabilityBounds(t *testing.T) {
	c := New(pam4.DefaultEnergyModel())
	p := c.InversionProbability()
	if p <= 0 || p >= 1 {
		t.Errorf("inversion probability %g out of (0,1)", p)
	}
	// Inverted sequences are more expensive on average (L0-heavy codes
	// become L3-heavy).
	if c.ExpectedSeqEnergy() <= c.Model().SeqEnergy(c.Table()[0]) {
		t.Error("expected energy suspiciously low")
	}
}

func TestGroupBeatRoundTrip(t *testing.T) {
	c := New(pam4.DefaultEnergyModel())
	rng := rand.New(rand.NewSource(3))
	encState := IdleGroupState()
	decState := IdleGroupState()
	for beat := 0; beat < 2000; beat++ {
		var data [GroupDataWires]byte
		for i := range data {
			data[i] = byte(rng.Intn(256))
		}
		b := c.EncodeGroupBeat(data, &encState)
		got, ok := c.DecodeGroupBeat(b, &decState)
		if !ok {
			t.Fatalf("beat %d failed to decode", beat)
		}
		if got != data {
			t.Fatalf("beat %d: got %v want %v", beat, got, data)
		}
		if encState != decState {
			t.Fatalf("beat %d: encoder/decoder state diverged", beat)
		}
	}
}

func TestGroupBeatQuick(t *testing.T) {
	c := New(pam4.DefaultEnergyModel())
	f := func(data [GroupDataWires]byte, seed int64) bool {
		// Random but matched starting state on both sides.
		rng := rand.New(rand.NewSource(seed))
		var st GroupState
		for i := range st {
			st[i] = pam4.Level(rng.Intn(int(pam4.NumLevels)))
		}
		enc, dec := st, st
		b := c.EncodeGroupBeat(data, &enc)
		got, ok := c.DecodeGroupBeat(b, &dec)
		return ok && got == data && enc == dec
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestDecodeGroupBeatFailureLeavesStateUntouched(t *testing.T) {
	c := New(pam4.DefaultEnergyModel())
	st := IdleGroupState()
	var bad Beat
	for i := range bad {
		bad[i] = pam4.MakeSeq(pam4.L2, pam4.L3, pam4.L3, pam4.L3) // dropped sequence
	}
	before := st
	if _, ok := c.DecodeGroupBeat(bad, &st); ok {
		t.Fatal("bad beat decoded")
	}
	if st != before {
		t.Error("state mutated on failed decode")
	}
	// Wrong-length DBI sequence must also fail.
	var data [GroupDataWires]byte
	enc := IdleGroupState()
	good := c.EncodeGroupBeat(data, &enc)
	good[DBIWire] = pam4.MakeSeq(pam4.L0)
	dec := IdleGroupState()
	if _, ok := c.DecodeGroupBeat(good, &dec); ok {
		t.Error("truncated DBI wire decoded")
	}
}

func TestMSBPackRoundTrip(t *testing.T) {
	for pattern := 0; pattern < 256; pattern++ {
		var msbs [GroupDataWires]uint8
		var data [GroupDataWires]byte
		for i := range msbs {
			msbs[i] = uint8(pattern>>uint(i)) & 1
			data[i] = msbs[i]<<7 | byte(pattern*(i+1))&0x7f
		}
		got, ok := unpackMSBs(packMSBs(&data))
		if !ok || got != msbs {
			t.Fatalf("pattern %08b: got %v", pattern, got)
		}
	}
}

func TestIdleGroupState(t *testing.T) {
	s := IdleGroupState()
	for i, l := range s {
		if l != IdleLevel {
			t.Errorf("wire %d idle level = %v", i, l)
		}
	}
}

func TestExpectedBeatEnergyConsistency(t *testing.T) {
	c := New(pam4.DefaultEnergyModel())
	approx(t, "beat energy", c.ExpectedBeatEnergy(), c.ExpectedPerBit()*GroupBeatBits, 1e-9)
}
