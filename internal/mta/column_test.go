package mta

import (
	"testing"

	"smores/internal/pam4"
)

// atColumns is the symbol-by-symbol transposition Columns must equal.
func atColumns(b Beat) [SeqSymbols]Column {
	var cols [SeqSymbols]Column
	for ui := 0; ui < SeqSymbols; ui++ {
		for w := 0; w < GroupWires; w++ {
			cols[ui][w] = b[w].At(ui)
		}
	}
	return cols
}

// Columns equals the transposition for every table entry, sent upright
// (after L0) and inverted (after L3), beside a DBI wire carrying every
// MSB pair on each of its symbols.
func TestBeatColumnsMatchesTransposition(t *testing.T) {
	c := New(pam4.DefaultEnergyModel())
	table := c.Table()
	for _, trail := range []pam4.Level{pam4.L0, pam4.L3} {
		for v := 0; v < TableSize; v++ {
			var data [GroupDataWires]byte
			for w := range data {
				data[w] = byte(v) | byte(v>>(w%7)&1)<<7
			}
			var st GroupState
			for w := range st {
				st[w] = trail
			}
			b := c.EncodeGroupBeat(data, &st)
			want := table[v]
			if trail == pam4.L3 {
				want = want.Invert()
			}
			if b[0] != want {
				t.Fatalf("after %v, entry %d went out as %v, want %v", trail, v, b[0], want)
			}
			if got := b.Columns(); got != atColumns(b) {
				t.Fatalf("after %v, entry %d: Columns %v, transposition %v", trail, v, got, atColumns(b))
			}
		}
	}
}

// A beat whose wire does not carry exactly SeqSymbols symbols panics.
func TestBeatColumnsPanicsOnLength(t *testing.T) {
	for _, n := range []int{0, SeqSymbols - 1, SeqSymbols + 1} {
		var b Beat
		for w := range b {
			b[w] = pam4.SeqFromPacked(0, SeqSymbols)
		}
		b[DBIWire] = pam4.SeqFromPacked(0, n)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("a %d-symbol DBI wire did not panic", n)
				}
			}()
			b.Columns()
		}()
	}
}
