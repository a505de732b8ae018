package obs

import (
	"sync"

	"smores/internal/floats"
)

// Tally is a private, single-writer copy of a Profile's cells. A bus
// channel records every attribution sample into its own tally with plain
// adds, and its runner publishes the tally into the shared Profile once
// per run. A tally sums a cell's samples in the order they arrive, as a
// Profile fed by one writer does, so publishing a run's tally into an
// empty Profile yields exactly the cells that feeding the Profile sample
// by sample would.
//
// The cells come in two parts with the Profile's cell key:
//
//   - 63 aggregate cells (NumPhases × NumProfileCodecs at wire WireAgg,
//     level LevelMix, class TransMix) for closed-form expected-mode and
//     logic samples;
//   - 22,680 per-symbol cells (phase × codec × 18 wires × 4 levels × the
//     ΔV and seam classes) for exact-data symbols, present only in
//     tallies built with perSymbol set.
//
// Tallies come from a pool (NewTally) and go back to it when published,
// so a fleet builds a handful, not one per run. Like every obs
// instrument a nil *Tally is inert; a Tally is not safe for concurrent
// use.
type Tally struct {
	agg [tallyAggCells]tallyCell
	sym []tallyCell
}

// tallyCell is one plain (non-atomic) cell.
type tallyCell struct {
	fj float64
	n  int64
}

const (
	// tallyAggCells counts the aggregate cells: one per phase × codec.
	tallyAggCells = NumPhases * NumProfileCodecs
	// tallySymClasses covers the per-symbol classes 0ΔV..3ΔV and seam;
	// TransMix belongs to aggregate samples only.
	tallySymClasses = int(TransSeam) + 1
	// tallySymCells counts the per-symbol cells.
	tallySymCells = NumPhases * NumProfileCodecs * ProfileWires * ProfileLevels * tallySymClasses
)

// aggTallies and symTallies pool published tallies by kind, so an
// expected-mode channel never holds, or scans, a per-symbol part.
var aggTallies, symTallies sync.Pool

// NewTally returns an empty tally from the pool, with the per-symbol
// part when perSymbol is set (exact-data channels) and without it
// otherwise.
func NewTally(perSymbol bool) *Tally {
	pool := &aggTallies
	if perSymbol {
		pool = &symTallies
	}
	if t, ok := pool.Get().(*Tally); ok {
		return t
	}
	t := new(Tally)
	if perSymbol {
		t.sym = make([]tallyCell, tallySymCells)
	}
	return t
}

// PerSymbol reports whether the tally has per-symbol cells.
func (t *Tally) PerSymbol() bool { return t != nil && t.sym != nil }

// AddSymbol records one transmitted symbol of fj ≥ 0 femtojoules.
// Samples whose key lies outside the per-symbol cells, and every sample
// on a tally without them, are dropped.
//
//smores:hotpath
func (t *Tally) AddSymbol(ph Phase, codec, wire, level int, tc TransClass, fj float64) {
	if t == nil || ph >= NumPhases || int(tc) >= tallySymClasses ||
		uint(codec) >= NumProfileCodecs || uint(wire) >= ProfileWires || uint(level) >= ProfileLevels {
		return
	}
	i := (((int(ph)*NumProfileCodecs+codec)*ProfileWires+wire)*ProfileLevels+level)*tallySymClasses + int(tc)
	if i >= len(t.sym) {
		return
	}
	c := &t.sym[i]
	c.fj += fj
	c.n++
}

// AddAggregate records a closed-form sample with no per-wire, level or
// transition identity, as Profile.Add does at (WireAgg, LevelMix,
// TransMix): energy counts only when positive, symbols only when
// positive. Out-of-range keys are dropped.
//
//smores:hotpath
func (t *Tally) AddAggregate(ph Phase, codec int, fj float64, symbols int64) {
	if t == nil || ph >= NumPhases || uint(codec) >= NumProfileCodecs {
		return
	}
	c := &t.agg[int(ph)*NumProfileCodecs+codec]
	if fj > 0 {
		c.fj += fj
	}
	if symbols > 0 {
		c.n += symbols
	}
}

// Publish adds every non-empty cell to p through Profile.Add, one Add
// per cell, zeroes the cells, and returns the tally to the pool: the
// caller must not use t afterwards. A nil p discards the samples.
func (t *Tally) Publish(p *Profile) {
	if t == nil {
		return
	}
	for i := range t.agg {
		c := &t.agg[i]
		if c.empty() {
			continue
		}
		p.Add(Phase(i/NumProfileCodecs), i%NumProfileCodecs, WireAgg, LevelMix, TransMix, c.fj, c.n)
		*c = tallyCell{}
	}
	if t.sym == nil {
		aggTallies.Put(t)
		return
	}
	i := 0
	for ph := Phase(0); ph < NumPhases; ph++ {
		for codec := 0; codec < NumProfileCodecs; codec++ {
			for wire := 0; wire < ProfileWires; wire++ {
				for level := 0; level < ProfileLevels; level++ {
					for tc := TransClass(0); int(tc) < tallySymClasses; tc++ {
						if c := &t.sym[i]; !c.empty() {
							p.Add(ph, codec, wire, level, tc, c.fj, c.n)
							*c = tallyCell{}
						}
						i++
					}
				}
			}
		}
	}
	symTallies.Put(t)
}

func (c *tallyCell) empty() bool { return floats.Eq(c.fj, 0) && c.n == 0 }
