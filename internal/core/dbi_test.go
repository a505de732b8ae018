package core

import (
	"testing"

	"smores/internal/mta"
	"smores/internal/pam4"
)

// refApplyDBISwap is the paper's rule written as a branching count and
// an explicit per-wire swap: the reference ApplyDBISwap must equal.
func refApplyDBISwap(col mta.Column) mta.Column {
	n1, n2 := 0, 0
	for w := 0; w < mta.GroupDataWires; w++ {
		switch col[w] {
		case pam4.L1:
			n1++
		case pam4.L2:
			n2++
		}
	}
	swap := func(a, b pam4.Level) {
		for w := 0; w < mta.GroupDataWires; w++ {
			switch col[w] {
			case a:
				col[w] = b
			case b:
				col[w] = a
			}
		}
	}
	switch {
	case n1 > mta.GroupDataWires/2:
		swap(pam4.L0, pam4.L1)
		col[mta.DBIWire] = pam4.L1
	case n2 > mta.GroupDataWires/2:
		swap(pam4.L0, pam4.L2)
		col[mta.DBIWire] = pam4.L2
	default:
		col[mta.DBIWire] = pam4.L0
	}
	return col
}

// ApplyDBISwap equals the branching count rule on every data-wire
// column (all 4^8 of them, L3 included), whatever the DBI wire held,
// and UndoDBISwap takes every result back to the input.
func TestApplyDBISwapMatchesCountRule(t *testing.T) {
	for code := 0; code < 1<<(2*mta.GroupDataWires); code++ {
		var col mta.Column
		for w := 0; w < mta.GroupDataWires; w++ {
			col[w] = pam4.Level(code >> (2 * w) & 3)
		}
		for dbi := pam4.L0; dbi < pam4.NumLevels; dbi++ {
			col[mta.DBIWire] = dbi
			got, want := ApplyDBISwap(col), refApplyDBISwap(col)
			if got != want {
				t.Fatalf("column %v: ApplyDBISwap %v, count rule %v", col, got, want)
			}
			back, ok := UndoDBISwap(got)
			back[mta.DBIWire] = dbi
			if !ok || back != col {
				t.Fatalf("column %v: UndoDBISwap(%v) = %v, %v", col, got, back, ok)
			}
		}
	}
}
