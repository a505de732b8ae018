package obs

import (
	"math/rand"
	"testing"

	"smores/internal/floats"
)

func TestTallyNilSafety(t *testing.T) {
	var tl *Tally
	tl.Row(PhaseMTAPayload, 0, 0, ProfileWires).Add(0, SymbolCell(0, Trans0DV), 1)
	tl.AddAggregate(PhaseLogic, 0, 1, 1)
	if tl.PerSymbol() {
		t.Fatal("nil tally reports a per-symbol part")
	}
	// So is a tally without per-symbol cells.
	agg := NewTally(false)
	if row := agg.Row(PhaseMTAPayload, 0, 0, ProfileWires); row.cells != nil {
		t.Fatal("an aggregate-only tally handed out a per-symbol row")
	}
	agg.Publish(nil)
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
// counts, which Profile.Add drops; per-symbol samples go through rows
// of random position and width and include keys outside the per-symbol
// cells and wires outside their row, which the tally drops.
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
		first := rng.Intn(ProfileWires + 2)
		wires := rng.Intn(ProfileWires + 1)
		w, level := rng.Intn(wires+2)-1, rng.Intn(ProfileLevels+1)
		tc := TransClass(rng.Intn(int(TransSeam) + 2))
		fj := float64(rng.Intn(8)) * 31.7 // includes zero-energy symbols
		tl.Row(ph, codec, first, wires).Add(w, SymbolCell(level, tc), fj)
		if first+wires <= ProfileWires && w >= 0 && w < wires && level < ProfileLevels && tc <= TransSeam {
			direct.Add(ph, codec, first+w, level, tc, fj, 1)
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
		addSymbol(tl, PhaseMTAPayload, 0, 3, 2, Trans1DV, 42.5)
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
	cell := SymbolCell(2, Trans1DV)
	if n := testing.AllocsPerRun(100, func() {
		row := tl.Row(PhaseMTAPayload, 0, 9, 9)
		row.Add(3, cell, 42.5)
		row.Add(8, cell, 42.5)
		tl.AddAggregate(PhaseLogic, 1, 7, 0)
	}); n != 0 {
		t.Fatalf("tally adds allocate %v per call, want 0", n)
	}
}

// addSymbol records one symbol through a one-wire row.
func addSymbol(tl *Tally, ph Phase, codec, wire, level int, tc TransClass, fj float64) {
	tl.Row(ph, codec, wire, 1).Add(0, SymbolCell(level, tc), fj)
}

// SymbolCell numbers each (level, per-symbol class) pair once within
// a wire's cells and refuses every other pair.
func TestSymbolCell(t *testing.T) {
	seen := make([]bool, SymbolCells)
	for level := -1; level <= ProfileLevels; level++ {
		for tc := TransClass(0); tc < NumTransClasses; tc++ {
			c := SymbolCell(level, tc)
			valid := level >= 0 && level < ProfileLevels && tc <= TransSeam
			if !valid {
				if c != -1 {
					t.Errorf("SymbolCell(%d, %v) = %d, want -1", level, tc, c)
				}
				continue
			}
			if c < 0 || c >= SymbolCells || seen[c] {
				t.Fatalf("SymbolCell(%d, %v) = %d: out of range or taken", level, tc, c)
			}
			seen[c] = true
		}
	}
}
