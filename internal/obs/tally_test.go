package obs

import (
	"math/rand"
	"testing"

	"smores/internal/floats"
)

func TestTallyNilSafety(t *testing.T) {
	var tl *Tally
	tl.AddSymbol(PhaseMTAPayload, 0, 0, 0, Trans0DV, 1)
	tl.AddAggregate(PhaseLogic, 0, 1, 1)
	if tl.PerSymbol() {
		t.Fatal("nil tally reports a per-symbol part")
	}
	p := NewProfile()
	tl.Publish(p)
	if n := len(p.Snapshot().Cells); n != 0 {
		t.Fatalf("nil tally published %d cells", n)
	}
}

// Publishing a tally into an empty profile must yield, bit for bit, the
// cells of feeding the profile the same samples directly: the tally
// sums each cell in arrival order, as a single writer's Profile does.
// Aggregate samples include zero and negative energies and zero
// counts, which Profile.Add drops; per-symbol samples include keys
// outside the per-symbol cells, which the tally drops.
func TestTallyPublishMatchesProfile(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	direct, published := NewProfile(), NewProfile()
	tl := NewTally(true)
	if !tl.PerSymbol() {
		t.Fatal("NewTally(true) has no per-symbol part")
	}
	for k := 0; k < 20000; k++ {
		ph := Phase(rng.Intn(NumPhases))
		codec := rng.Intn(NumProfileCodecs)
		if rng.Intn(4) == 0 {
			fj := rng.Float64() * 50
			n := rng.Int63n(3)
			switch rng.Intn(4) {
			case 0:
				fj = 0
			case 1:
				fj = -fj
			}
			tl.AddAggregate(ph, codec, fj, n)
			direct.Add(ph, codec, WireAgg, LevelMix, TransMix, fj, n)
			continue
		}
		wire, level := rng.Intn(ProfileWires+1), rng.Intn(ProfileLevels)
		tc := TransClass(rng.Intn(int(TransSeam) + 2))
		fj := float64(rng.Intn(8)) * 31.7 // includes zero-energy symbols
		tl.AddSymbol(ph, codec, wire, level, tc, fj)
		if wire < ProfileWires && tc <= TransSeam {
			direct.Add(ph, codec, wire, level, tc, fj, 1)
		}
	}
	tl.Publish(published)
	want, got := direct.Snapshot().Cells, published.Snapshot().Cells
	if len(want) < 1000 {
		t.Fatalf("only %d cells — the test is vacuous", len(want))
	}
	if len(got) != len(want) {
		t.Fatalf("published %d cells, want %d", len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if g.Phase != w.Phase || g.Codec != w.Codec || g.Wire != w.Wire || g.Level != w.Level ||
			g.Trans != w.Trans || !floats.Eq(g.FJ, w.FJ) || g.Count != w.Count {
			t.Fatalf("cell %d published as %+v, want %+v", i, g, w)
		}
	}
}

// A published tally goes back to its pool empty: whatever NewTally hands
// out next publishes nothing until it is fed.
func TestTallyPublishZeroes(t *testing.T) {
	for _, perSymbol := range []bool{false, true} {
		tl := NewTally(perSymbol)
		tl.AddAggregate(PhaseLogic, 2, 10, 4)
		tl.AddSymbol(PhaseMTAPayload, 0, 3, 2, Trans1DV, 42.5)
		tl.Publish(NewProfile())
		for i := 0; i < 4; i++ {
			p := NewProfile()
			next := NewTally(perSymbol)
			if next.PerSymbol() != perSymbol {
				t.Fatalf("perSymbol=%v: pool handed out a tally of the other kind", perSymbol)
			}
			next.Publish(p)
			if n := len(p.Snapshot().Cells); n != 0 {
				t.Fatalf("perSymbol=%v: a fresh tally published %d cells", perSymbol, n)
			}
		}
	}
}

func TestTallyAddZeroAlloc(t *testing.T) {
	tl := NewTally(true)
	if n := testing.AllocsPerRun(100, func() {
		tl.AddSymbol(PhaseMTAPayload, 0, 3, 2, Trans1DV, 42.5)
		tl.AddAggregate(PhaseLogic, 1, 7, 0)
	}); n != 0 {
		t.Fatalf("tally adds allocate %v per call, want 0", n)
	}
}
