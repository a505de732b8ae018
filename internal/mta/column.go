package mta

import (
	"fmt"

	"smores/internal/pam4"
)

// Column is the physical state of one group's nine wires during a single
// unit interval, DBI wire last. Bursts are transmitted as a series of
// columns; this is the representation the bus model consumes.
type Column [GroupWires]pam4.Level

// UniformColumn returns a column with every wire at the same level.
func UniformColumn(l pam4.Level) Column {
	var c Column
	for i := range c {
		c[i] = l
	}
	return c
}

// IdleColumn is one UI of idle bus (all wires at L0).
func IdleColumn() Column { return UniformColumn(IdleLevel) }

// PostambleColumn is one UI of the GDDR6X postamble (all wires at L1).
func PostambleColumn() Column { return UniformColumn(PostambleLevel) }

// Columns expands a beat into its four transmitted columns. Each
// wire's sequence is unpacked once, after one length check; it panics
// if a sequence is not SeqSymbols long.
func (b Beat) Columns() [SeqSymbols]Column {
	var cols [SeqSymbols]Column
	for w := 0; w < GroupWires; w++ {
		if n := b[w].Len(); n != SeqSymbols {
			panic(fmt.Sprintf("mta: beat wire %d carries %d symbols, want %d", w, n, SeqSymbols))
		}
		p := b[w].Packed()
		for ui := 0; ui < SeqSymbols; ui++ {
			cols[ui][w] = pam4.Level(p >> (2 * uint(ui)) & 3)
		}
	}
	return cols
}

// BeatFromColumns reassembles a beat from four received columns.
func BeatFromColumns(cols [SeqSymbols]Column) Beat {
	var b Beat
	for w := 0; w < GroupWires; w++ {
		var s pam4.Seq
		for ui := 0; ui < SeqSymbols; ui++ {
			s = s.Append(cols[ui][w])
		}
		b[w] = s
	}
	return b
}
