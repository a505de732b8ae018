package mta

import (
	"math/rand"
	"testing"

	"smores/internal/pam4"
)

// atColumns transposes a beat into its four columns symbol by symbol.
func atColumns(b Beat) [SeqSymbols]Column {
	var cols [SeqSymbols]Column
	for ui := 0; ui < SeqSymbols; ui++ {
		for w := 0; w < GroupWires; w++ {
			cols[ui][w] = b[w].At(ui)
		}
	}
	return cols
}

// refBeat is the MTA rule spelled out: each data wire sends its table
// entry, inverted after an L3, and the DBI wire sends the MSB pairs.
// It returns the beat and the advanced state.
func refBeat(table []pam4.Seq, data [GroupDataWires]byte, st GroupState) (Beat, GroupState) {
	var b Beat
	for w := 0; w < GroupDataWires; w++ {
		s := table[data[w]&0x7f]
		if st[w] == pam4.L3 {
			s = s.Invert()
		}
		b[w], st[w] = s, s.Last()
	}
	for i := 0; i < SeqSymbols; i++ {
		b[DBIWire] = b[DBIWire].Append(pam4.LevelFromBits(data[2*i]>>7, data[2*i+1]>>7))
	}
	st[DBIWire] = b[DBIWire].Last()
	return b, st
}

// EncodeGroupBeat equals the MTA rule, and EncodeGroupColumns equals
// its beat transposed, advancing the state the same way: for every
// table entry from every trailing level on every wire (wire w trails at
// level (k+w) mod 4 in pass k, so each wire meets all four), beside a
// DBI wire carrying every MSB pair, and on random beats from random
// states.
func TestEncodeGroupColumnsMatchesBeat(t *testing.T) {
	c := New(pam4.DefaultEnergyModel())
	table := c.Table()
	check := func(data [GroupDataWires]byte, st GroupState) {
		t.Helper()
		want, wantSt := refBeat(table, data, st)
		beatSt, colSt := st, st
		if got := c.EncodeGroupBeat(data, &beatSt); got != want || beatSt != wantSt {
			t.Fatalf("data %x from %v: EncodeGroupBeat %v → %v, rule %v → %v", data, st, got, beatSt, want, wantSt)
		}
		if got := c.EncodeGroupColumns(data, &colSt); got != atColumns(want) || colSt != wantSt {
			t.Fatalf("data %x from %v: EncodeGroupColumns %v → %v, transposed beat %v → %v",
				data, st, got, colSt, atColumns(want), wantSt)
		}
	}
	for k := 0; k < int(pam4.NumLevels); k++ {
		var st GroupState
		for w := range st {
			st[w] = pam4.Level((k + w) % int(pam4.NumLevels))
		}
		for v := 0; v < TableSize; v++ {
			var data [GroupDataWires]byte
			for w := range data {
				data[w] = byte(v) | byte(v>>(w%7)&1)<<7
			}
			check(data, st)
		}
	}
	rng := rand.New(rand.NewSource(20261018))
	for i := 0; i < 2000; i++ {
		var data [GroupDataWires]byte
		rng.Read(data[:])
		var st GroupState
		for w := range st {
			st[w] = pam4.Level(rng.Intn(int(pam4.NumLevels)))
		}
		check(data, st)
	}
}
