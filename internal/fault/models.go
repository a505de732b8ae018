package fault

// The error processes. Each consumes randomness in a fixed order —
// column by column, wire by wire — so a fixed seed reproduces the exact
// error pattern regardless of which detection layers are enabled.

import (
	"smores/internal/mta"
	"smores/internal/pam4"
)

// corruptGroup applies the configured error process to one group's
// received columns in place, returning the number of corrupted symbols.
func (in *Injector) corruptGroup(g int, cols []mta.Column) int {
	switch in.cfg.Model {
	case ModelUniform:
		return in.corruptUniform(cols)
	case ModelEyeBiased:
		return in.corruptEye(cols)
	case ModelBursty:
		return in.corruptBursty(g, cols)
	}
	return 0
}

// corruptUniform flips each symbol with probability Rate to one of the
// three other levels, uniformly, walking the symbols in column, wire
// order from one hit to the next.
func (in *Injector) corruptUniform(cols []mta.Column) int {
	n := 0
	total := len(cols) * mta.GroupWires
	for i := in.nextUniformHit(-1, total); i < total; i = in.nextUniformHit(i, total) {
		ui, w := i/mta.GroupWires, i%mta.GroupWires
		cols[ui][w] = otherLevel(cols[ui][w], in.rng.Intn(int(pam4.NumLevels)-1))
		n++
	}
	return n
}

// nextUniformHit returns the index of the next symbol after i, of total,
// that the uniform model corrupts, or total when none is. It makes the
// per-symbol Rate draws a Below loop would, but in one FirstBelow run,
// so the generator leaves registers only at a hit.
func (in *Injector) nextUniformHit(i, total int) int {
	return i + 1 + in.rng.FirstBelow(in.rateT, total-i-1)
}

// corruptEye samples each symbol's received level from the slip matrix
// row of its transmitted level: interior levels are about twice as
// exposed as the extremes, and adjacent slips dominate.
func (in *Injector) corruptEye(cols []mta.Column) int {
	n := 0
	for ui := range cols {
		for w := 0; w < mta.GroupWires; w++ {
			got := in.sampleSlip(cols[ui][w])
			if got != cols[ui][w] {
				cols[ui][w] = got
				n++
			}
		}
	}
	return n
}

// sampleSlip draws a received level from the slip matrix row of l.
func (in *Injector) sampleSlip(l pam4.Level) pam4.Level {
	u := in.rng.Float64()
	row := &in.slip[l]
	acc := 0.0
	for to := 0; to < pam4.NumLevels; to++ {
		acc += row[to]
		if u < acc {
			return pam4.Level(to)
		}
	}
	return l
}

// corruptBursty advances the group's two-state Gilbert-Elliott chain one
// step per column; in the bad state every wire slips one level (direction
// uniform, clamped to the level range) with probability badSlip.
func (in *Injector) corruptBursty(g int, cols []mta.Column) int {
	n := 0
	for ui := range cols {
		if in.geBad[g] {
			if in.rng.Below(in.pbgT) {
				in.geBad[g] = false
			}
		} else if in.rng.Below(in.pgbT) {
			in.geBad[g] = true
		}
		if !in.geBad[g] {
			continue
		}
		for w := 0; w < mta.GroupWires; w++ {
			if !in.rng.Below(slipT) {
				continue
			}
			cols[ui][w] = adjacentSlip(cols[ui][w], in.rng.Below(upT))
			n++
		}
	}
	return n
}

// corruptPin applies the error process to one group's EDC pin symbols,
// returning the number corrupted. The pin shares the group's burst state
// in the bursty model (it routes through the same interface region).
func (in *Injector) corruptPin(g int, sym []pam4.Level) int {
	n := 0
	switch in.cfg.Model {
	case ModelUniform:
		for i := in.nextUniformHit(-1, len(sym)); i < len(sym); i = in.nextUniformHit(i, len(sym)) {
			sym[i] = otherLevel(sym[i], in.rng.Intn(int(pam4.NumLevels)-1))
			n++
		}
	case ModelEyeBiased:
		for i := range sym {
			if got := in.sampleSlip(sym[i]); got != sym[i] {
				sym[i] = got
				n++
			}
		}
	case ModelBursty:
		if !in.geBad[g] {
			return 0
		}
		for i := range sym {
			if in.rng.Below(slipT) {
				sym[i] = adjacentSlip(sym[i], in.rng.Below(upT))
				n++
			}
		}
	}
	return n
}

// otherLevel returns the k-th (0..2) level different from l.
func otherLevel(l pam4.Level, k int) pam4.Level {
	v := pam4.Level(k)
	if v >= l {
		v++
	}
	return v
}

// adjacentSlip moves one level up or down, reflecting at the range ends
// (a slip at L0 can only go up; at L3 only down).
func adjacentSlip(l pam4.Level, up bool) pam4.Level {
	if up {
		if l == pam4.L3 {
			return pam4.L2
		}
		return l + 1
	}
	if l == pam4.L0 {
		return pam4.L1
	}
	return l - 1
}
