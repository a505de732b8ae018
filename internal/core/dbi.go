package core

import (
	"smores/internal/mta"
	"smores/internal/pam4"
)

// The restricted DBI for sparse codes is a *level swap*: if a non-zero
// level occupies the majority of the eight data wires in a UI column, it
// is swapped with the minimum-energy L0 and the DBI wire signals which
// level was swapped (L1, L2, or L0 for "none"). Swapping preserves the
// 2/3-level alphabet, so the maximum-transition guarantee is untouched.

// dbiThreshold is the strict majority bound: swap when more than four of
// the eight data wires carry the level.
const dbiThreshold = mta.GroupDataWires / 2

// Level-permutation tables for the two legal swaps, indexed by level. The
// hot path applies a swap as one table load per wire instead of a
// three-way switch; L3 maps to itself (pre-shift sparse columns never
// carry it, but the exported helpers accept arbitrary columns).
var (
	swap01 = [pam4.NumLevels]pam4.Level{pam4.L1, pam4.L0, pam4.L2, pam4.L3}
	swap02 = [pam4.NumLevels]pam4.Level{pam4.L2, pam4.L1, pam4.L0, pam4.L3}
)

// dbiCount is the level-indexed count table: summing dbiCount[l] over
// the data wires counts the L1s in the low nibble and the L2s in the
// high one (eight wires fit a nibble), one add per wire and no branch.
var dbiCount = [pam4.NumLevels]uint8{pam4.L1: 1, pam4.L2: 1 << 4}

// ApplyDBISwap implements the paper's rule on a pre-shift column:
//
//	swap L0↔L1 and set DBI=L1 if N_L1 > 4
//	swap L0↔L2 and set DBI=L2 if N_L2 > 4
//	otherwise DBI=L0
//
// L1 is tested first, as in the paper; both counts cannot exceed four
// simultaneously (they sum to at most eight), so the order only matters
// for documentation.
func ApplyDBISwap(col mta.Column) mta.Column {
	applyDBISwap(&col)
	return col
}

// applyDBISwap is ApplyDBISwap on a column in place, for the encoder's
// hot path.
func applyDBISwap(col *mta.Column) {
	var n uint8
	for w := 0; w < mta.GroupDataWires; w++ {
		n += dbiCount[col[w]]
	}
	switch {
	case n&0xf > dbiThreshold:
		permuteLevels(col, &swap01)
		col[mta.DBIWire] = pam4.L1
	case n>>4 > dbiThreshold:
		permuteLevels(col, &swap02)
		col[mta.DBIWire] = pam4.L2
	default:
		col[mta.DBIWire] = pam4.L0
	}
}

// UndoDBISwap reverses ApplyDBISwap using the DBI wire's (unshifted)
// value. It reports false for a DBI symbol outside {L0, L1, L2}.
func UndoDBISwap(col mta.Column) (mta.Column, bool) {
	switch col[mta.DBIWire] {
	case pam4.L0:
		return col, true
	case pam4.L1:
		permuteLevels(&col, &swap01)
		return col, true
	case pam4.L2:
		permuteLevels(&col, &swap02)
		return col, true
	default:
		return col, false
	}
}

// permuteLevels remaps the data wires through a level-permutation table
// in place (the DBI wire is left alone).
func permuteLevels(col *mta.Column, m *[pam4.NumLevels]pam4.Level) {
	for w := 0; w < mta.GroupDataWires; w++ {
		col[w] = m[col[w]]
	}
}
