package mta

import "smores/internal/pam4"

// A GDDR6X byte group is eight data wires plus one DBI wire. Every command
// clock (4 UIs) the group carries one byte per data wire: the low 7 bits
// MTA-encoded on the wire itself, the MSB multiplexed onto the DBI wire as
// plain PAM4 (two MSBs per DBI symbol).
const (
	// GroupDataWires is the number of MTA-encoded wires per group.
	GroupDataWires = 8
	// GroupWires includes the DBI wire.
	GroupWires = GroupDataWires + 1
	// DBIWire is the index of the DBI wire within a group.
	DBIWire = GroupDataWires
	// GroupBeatBits is the payload of one group beat: 8 wires × 8 bits.
	GroupBeatBits = GroupDataWires * DataBitsPerWireBeat
)

// GroupState is the trailing level of each wire in a group — everything
// the codec needs to encode or decode the next beat. The zero value is a
// fully idle group (all wires at L0).
type GroupState [GroupWires]pam4.Level

// IdleGroupState returns the state of a group parked at the idle level.
func IdleGroupState() GroupState {
	var s GroupState
	for i := range s {
		s[i] = IdleLevel
	}
	return s
}

// Beat is the transmitted form of one group beat: a 4-symbol sequence per
// wire, the DBI wire last.
type Beat [GroupWires]pam4.Seq

// EncodeGroupBeat encodes one byte per data wire. state is mutated to the
// group's new trailing levels.
//
//smores:hotpath
func (c *Codec) EncodeGroupBeat(data [GroupDataWires]byte, state *GroupState) Beat {
	var beat Beat
	for w := 0; w < GroupDataWires; w++ {
		beat[w] = c.tx[state[w]][data[w]&0x7f]
		state[w] = beat[w].Last()
	}
	beat[DBIWire] = packMSBs(&data)
	state[DBIWire] = beat[DBIWire].Last()
	return beat
}

// EncodeGroupColumns is EncodeGroupBeat returning the beat as the four
// columns it puts on the wires: each data wire's sequence is one load
// from the codec's transmit table, unpacked straight into the columns.
//
//smores:hotpath
func (c *Codec) EncodeGroupColumns(data [GroupDataWires]byte, state *GroupState) [SeqSymbols]Column {
	var cols [SeqSymbols]Column
	for w := 0; w < GroupDataWires; w++ {
		p := c.tx[state[w]][data[w]&0x7f].Packed()
		cols[0][w] = pam4.Level(p & 3)
		cols[1][w] = pam4.Level(p >> 2 & 3)
		cols[2][w] = pam4.Level(p >> 4 & 3)
		cols[3][w] = pam4.Level(p >> 6 & 3)
		state[w] = cols[3][w]
	}
	for i := range cols {
		cols[i][DBIWire] = msbLevel(&data, i)
	}
	state[DBIWire] = cols[SeqSymbols-1][DBIWire]
	return cols
}

// DecodeGroupBeat reverses EncodeGroupBeat. state must hold the same
// trailing levels the encoder saw and is advanced on success; on failure
// it is left unchanged and ok is false.
func (c *Codec) DecodeGroupBeat(beat Beat, state *GroupState) (data [GroupDataWires]byte, ok bool) {
	next := *state
	for w := 0; w < GroupDataWires; w++ {
		v, ok := c.DecodeWire(beat[w], state[w])
		if !ok {
			return data, false
		}
		data[w] = v
		next[w] = beat[w].Last()
	}
	msbs, ok := unpackMSBs(beat[DBIWire])
	if !ok {
		return data, false
	}
	for w := 0; w < GroupDataWires; w++ {
		data[w] |= msbs[w] << 7
	}
	next[DBIWire] = beat[DBIWire].Last()
	*state = next
	return data, true
}

// msbLevel is the DBI wire's symbol i, which carries the MSBs of wires
// 2i (high bit) and 2i+1.
func msbLevel(data *[GroupDataWires]byte, i int) pam4.Level {
	return pam4.LevelFromBits(data[2*i]>>7, data[2*i+1]>>7)
}

// packMSBs is the DBI wire's sequence: the eight per-wire MSBs on its
// four PAM4 symbols.
func packMSBs(data *[GroupDataWires]byte) pam4.Seq {
	var s pam4.Seq
	for i := 0; i < SeqSymbols; i++ {
		s = s.Append(msbLevel(data, i))
	}
	return s
}

// unpackMSBs reverses packMSBs.
func unpackMSBs(s pam4.Seq) (msbs [GroupDataWires]uint8, ok bool) {
	if s.Len() != SeqSymbols {
		return msbs, false
	}
	for i := 0; i < SeqSymbols; i++ {
		msbs[2*i], msbs[2*i+1] = s.At(i).Bits()
	}
	return msbs, true
}
