package mta

import "smores/internal/pam4"

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
