package bus

// The exact-mode symbol kernel. Every column the channel puts on the
// wires in exact-data mode — payload bursts, retransmissions, the
// postamble and the level-shifted idle step — goes through walk, which
// visits each symbol once and
//
//   - looks up the step from the wire's previous level in a 4×4 table
//     that gives the symbol's profile cell (level × transition class)
//     and whether the step is 3ΔV;
//   - adds the symbol's energy to the Stats field the transfer charges,
//     in wire order, so the float sums are those of adding symbol by
//     symbol;
//   - adds the symbol to its tally row, resolved once per group per
//     walk, so each cell sums its samples in arrival order; and
//   - counts a 3ΔV step on a data wire as a violation (the DBI wire is
//     exempt, as in GDDR6X).
//
// Attribution rules:
//
//   - The group's ninth wire goes to PhaseDBIWire in payload bursts (MSB
//     traffic in MTA bursts, swap metadata in sparse bursts). In
//     retransmissions, postambles and the idle-shift step it keeps the
//     phase of the other wires.
//   - A sparse, sparse-replay or idle-shift symbol that follows an L3
//     was rewritten by the level-shifting rule and is classed
//     TransSeam; every other symbol gets its ΔV magnitude class.
//   - Postamble symbols each cost the calibrated postamble drive energy
//     per wire-UI. That energy is charged to PostambleEnergy in
//     aggregate, so their walk adds it to no Stats field.

import (
	"smores/internal/mta"
	"smores/internal/obs"
	"smores/internal/pam4"
)

// stepTable classes each (previous level, level) step of one wire. The
// low bits of an entry hold the symbol's obs.SymbolCell offset; the
// stepOver bit flags a step beyond pam4.MaxTransition.
type stepTable [pam4.NumLevels][pam4.NumLevels]uint8

const (
	stepOverShift = 7
	stepOver      = 1 << stepOverShift
	stepCell      = stepOver - 1
)

// plainSteps classes every step by its ΔV magnitude; seamSteps classes
// every step out of L3 as a level-shift seam.
var plainSteps, seamSteps = newStepTable(false), newStepTable(true)

func newStepTable(seam bool) stepTable {
	var t stepTable
	for prev := pam4.L0; prev <= pam4.L3; prev++ {
		for l := pam4.L0; l <= pam4.L3; l++ {
			d := pam4.Delta(prev, l)
			tc := obs.TransOfDelta(d)
			if seam && prev == pam4.L3 {
				tc = obs.TransSeam
			}
			e := uint8(obs.SymbolCell(int(l), tc))
			if d > pam4.MaxTransition {
				e |= stepOver
			}
			t[prev][l] = e
		}
	}
	return t
}

// postambleCols is the postamble as transmitted: every wire at L1.
var postambleCols = func() (c [mta.PostambleUIs]mta.Column) {
	for ui := range c {
		c[ui] = mta.PostambleColumn()
	}
	return c
}()

// walkSpec is the attribution context of one walk.
type walkSpec struct {
	ph, dbiPh obs.Phase // phases of the eight data wires and of the DBI wire
	codec     int       // profile codec index
	steps     *stepTable
	energy    *[pam4.NumLevels]float64 // a symbol's energy by level
}

// burstWalk is the walk spec of a burst (or retransmission) of the
// given encoding whose data wires are attributed to ph and DBI wire to
// dbiPh. Sparse symbols after an L3 were level-shifted: they are seams.
func (ch *Channel) burstWalk(codeLength int, ph, dbiPh obs.Phase) walkSpec {
	s := walkSpec{ph: ph, dbiPh: dbiPh, codec: obs.ProfileCodecIndex(codeLength),
		steps: &plainSteps, energy: &ch.levelE}
	if codeLength != 0 {
		s.steps = &seamSteps
	}
	return s
}

// account walks each group's columns of the latest burst in txCols from
// the pre-burst trailing levels pre, adding their energy to *sum.
//
//smores:hotpath
func (ch *Channel) account(pre *[Groups]mta.GroupState, s walkSpec, sum *float64) {
	for g := range ch.txCols {
		prev := pre[g]
		ch.walk(g, &prev, ch.txCols[g], s, sum)
	}
}

// walk accounts cols, transmitted by group g after the trailing levels
// *prev, in one pass (see the file comment): energy into *sum,
// attribution into the tally, 3ΔV steps on data wires into
// Stats.Violations. It advances *prev to the last column.
//
//smores:hotpath
func (ch *Channel) walk(g int, prev *mta.GroupState, cols []mta.Column, s walkSpec, sum *float64) {
	base := g * mta.GroupWires
	data := ch.tally.Row(s.ph, s.codec, base, mta.GroupDataWires)
	dbi := ch.tally.Row(s.dbiPh, s.codec, base+mta.DBIWire, 1)
	steps, energy := s.steps, s.energy
	last, acc := *prev, *sum
	var over int64
	for i := range cols {
		col := &cols[i]
		for w := 0; w < mta.GroupDataWires; w++ {
			l := col[w]
			st := steps[last[w]][l]
			e := energy[l]
			acc += e
			over += int64(st >> stepOverShift)
			data.Add(w, int(st&stepCell), e)
		}
		l := col[mta.DBIWire]
		e := energy[l]
		acc += e
		dbi.Add(0, int(steps[last[mta.DBIWire]][l]&stepCell), e)
		last = mta.GroupState(*col)
	}
	*prev, *sum = last, acc
	ch.stats.Violations += over
}
