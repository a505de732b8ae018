// Package mta implements the GDDR6X Maximum Transition Avoidance encoding
// that SMOREs uses as its baseline: each wire's 8-bit beat is split into a
// most-significant bit (sent as plain PAM4 on the group's DBI wire) and 7
// bits mapped to one of 128 four-symbol sequences that never transition by
// 3ΔV. A per-wire inversion rule protects seams between sequences, and an
// L1 postamble protects the seam into an idle bus.
package mta

import (
	"fmt"
	"sync"

	"smores/internal/codec"
	"smores/internal/pam4"
)

// Variant selects which 11 of the 139 eligible sequences are discarded to
// reach the 128-entry table.
type Variant uint8

const (
	// DropHighest11 is the standard MTA table (discard the 11 most
	// expensive sequences).
	DropHighest11 Variant = iota
	// DropLowest11 is the paper's §II-B ablation: discarding the 11
	// cheapest sequences instead costs about 2% more energy.
	DropLowest11
)

// String names the variant.
func (v Variant) String() string {
	switch v {
	case DropHighest11:
		return "drop-highest-11"
	case DropLowest11:
		return "drop-lowest-11"
	default:
		return fmt.Sprintf("variant(%d)", uint8(v))
	}
}

const (
	// TableSize is the number of encoded sequences (7 data bits).
	TableSize = 128
	// SeqSymbols is the length of each encoded sequence in UIs.
	SeqSymbols = 4
	// SpaceSize is the number of eligible sequences before discarding.
	SpaceSize = 139
	// DataBitsPerWireBeat is the payload per wire per 4-UI beat: 7 encoded
	// bits plus the MSB that rides on the DBI wire.
	DataBitsPerWireBeat = 8

	// PostambleLevel is the level GDDR6X drives during the one-command-
	// clock postamble that follows a burst into an idle bus.
	PostambleLevel = pam4.L1
	// PostambleUIs is the postamble duration in unit intervals
	// (one command clock = 4 UI).
	PostambleUIs = 4
	// IdleLevel is the level the bus reverts to after the postamble.
	IdleLevel = pam4.L0
)

// Codec is an immutable MTA encoder/decoder.
type Codec struct {
	variant Variant
	model   *pam4.EnergyModel
	table   [TableSize]pam4.Seq
	// tx[prev][v] is the sequence a wire trailing at level prev sends for
	// the 7-bit value v: table[v], inverted when prev is L3. Every encoder
	// reads it, so the inversion rule is applied only here, at
	// construction, and encoding a wire is one table load.
	tx [pam4.NumLevels][TableSize]pam4.Seq
	// rx reverses tx: rx[prev][p] is 1 + the value whose sequence after
	// prev packs to p, and 0 for a sequence outside the table.
	rx [pam4.NumLevels][1 << (2 * SeqSymbols)]uint8
	// Steady-state statistics on uniform random data.
	uprightAvg    float64 // mean fJ of an upright sequence
	invertedAvg   float64 // mean fJ of an inverted sequence
	invProb       float64 // steady-state probability a sequence is inverted
	endL3Upright  float64 // P(upright sequence ends at L3)
	endL3Inverted float64 // P(inverted sequence ends at L3)
}

// New builds the standard MTA codec under the given energy model.
func New(m *pam4.EnergyModel) *Codec {
	c, err := NewVariant(m, DropHighest11)
	if err != nil {
		panic("mta: standard codec construction failed: " + err.Error())
	}
	return c
}

// Default returns the standard codec under the default energy model.
// Codecs are immutable, and construction (sequence enumeration, an
// energy sort and the transmit tables) dominates a channel's setup, so
// every caller shares one instance. pam4.DefaultEnergyModel returns a
// stable pointer, so callers can tell when a model calls for it.
func Default() *Codec { return defaultCodec() }

var defaultCodec = sync.OnceValue(func() *Codec { return New(pam4.DefaultEnergyModel()) })

// NewVariant builds an MTA codec with an explicit discard policy.
func NewVariant(m *pam4.EnergyModel, v Variant) (*Codec, error) {
	space, err := codec.Enumerate(codec.EnumConstraint{
		Symbols:       SeqSymbols,
		MaxLevel:      pam4.L3,
		MaxStartLevel: pam4.L2,
		MaxStep:       pam4.MaxTransition,
	})
	if err != nil {
		return nil, err
	}
	if len(space) != SpaceSize {
		return nil, fmt.Errorf("mta: sequence space has %d entries, want %d", len(space), SpaceSize)
	}
	codec.SortByEnergy(space, m)

	c := &Codec{variant: v, model: m}
	var kept []pam4.Seq
	switch v {
	case DropHighest11:
		kept = space[:TableSize]
	case DropLowest11:
		kept = space[SpaceSize-TableSize:]
	default:
		return nil, fmt.Errorf("mta: unknown variant %v", v)
	}
	copy(c.table[:], kept)
	for prev := range c.tx {
		for val, s := range c.table {
			if inverted(pam4.Level(prev)) {
				s = s.Invert()
			}
			c.tx[prev][val] = s
			c.rx[prev][s.Packed()] = uint8(val) + 1
		}
	}

	// Steady-state inversion statistics. A transmitted sequence is
	// inverted iff the previous transmitted sequence on the wire ended at
	// L3, giving a two-state Markov chain over {upright, inverted}.
	var endHighUpright, endHighInverted float64
	for _, s := range c.table {
		c.uprightAvg += m.SeqEnergy(s)
		c.invertedAvg += m.SeqEnergy(s.Invert())
		if s.Last() == pam4.L3 {
			endHighUpright++
		}
		if s.Invert().Last() == pam4.L3 {
			endHighInverted++
		}
	}
	c.uprightAvg /= TableSize
	c.invertedAvg /= TableSize
	c.endL3Upright = endHighUpright / TableSize   // P(next inverted | this upright)
	c.endL3Inverted = endHighInverted / TableSize // P(next inverted | this inverted)
	// π = (1−π)·pU + π·pI  ⇒  π = pU / (1 + pU − pI)
	c.invProb = c.endL3Upright / (1 + c.endL3Upright - c.endL3Inverted)
	return c, nil
}

// Variant returns the codec's discard policy.
func (c *Codec) Variant() Variant { return c.variant }

// Table returns a copy of the canonical (upright) sequence table indexed
// by 7-bit data value, in ascending-energy order.
func (c *Codec) Table() []pam4.Seq { return append([]pam4.Seq(nil), c.table[:]...) }

// inverted reports whether the next sequence on a wire must be sent
// inverted, given the last level transmitted on that wire. Per the paper's
// §IV-B ("the MTA code inverts the entire next encoded symbol sequence if
// the previous symbol ended on an L3"), inversion triggers only on L3:
// an upright sequence starts at L0..L2, which is a safe ≤2ΔV step from
// anything up to L2, and an inverted sequence starts at L1..L3, safe after
// an L3. Idle (L0) and postamble (L1) seams therefore never invert.
func inverted(prev pam4.Level) bool { return prev == pam4.L3 }

// EncodeWire encodes 7 data bits for one wire. prev is the last level
// physically present on the wire (idle level, postamble level, or the
// final symbol of the preceding sequence), a valid level. It returns the
// transmitted sequence and the wire's new trailing level.
func (c *Codec) EncodeWire(data7 uint8, prev pam4.Level) (pam4.Seq, pam4.Level) {
	if data7 >= TableSize {
		//smores:allowalloc panic message on out-of-range input, unreachable from the simulator
		panic(fmt.Sprintf("mta: data value %d exceeds 7 bits", data7))
	}
	s := c.tx[prev][data7]
	return s, s.Last()
}

// DecodeWire reverses EncodeWire given the same prev level the encoder
// saw. It reports false for sequences outside the table.
func (c *Codec) DecodeWire(s pam4.Seq, prev pam4.Level) (uint8, bool) {
	if s.Len() != SeqSymbols {
		return 0, false
	}
	if v := c.rx[prev][uint8(s.Packed())]; v != 0 {
		return v - 1, true
	}
	return 0, false
}

// ExpectedSeqEnergy returns the steady-state mean fJ of one transmitted
// 4-symbol sequence on uniform random data, including the energy effect of
// the inversion rule.
func (c *Codec) ExpectedSeqEnergy() float64 {
	return (1-c.invProb)*c.uprightAvg + c.invProb*c.invertedAvg
}

// inversionChainDepth bounds the warm-up recurrence; the chain converges
// to within float noise well before this.
const inversionChainDepth = 12

// inversionProbAt returns the inversion probability of the k-th sequence
// after a seam reset (idle, postamble, or a sparse burst all leave wires
// at or below L2, so sequence 0 is never inverted).
func (c *Codec) inversionProbAt(k int) float64 {
	if k >= inversionChainDepth {
		return c.invProb
	}
	// π₀ = 0; π_{k+1} = (1−π_k)·pU + π_k·pI where pU/pI are the
	// end-at-L3 probabilities of upright/inverted sequences.
	pU := c.endL3Upright
	pI := c.endL3Inverted
	pi := 0.0
	for i := 0; i < k; i++ {
		pi = (1-pi)*pU + pi*pI
	}
	return pi
}

// ExpectedSeqEnergyAt returns the mean fJ of the k-th transmitted
// sequence after a seam reset (k = 0 immediately after idle/postamble).
func (c *Codec) ExpectedSeqEnergyAt(k int) float64 {
	pi := c.inversionProbAt(k)
	return (1-pi)*c.uprightAvg + pi*c.invertedAvg
}

// ExpectedBeatEnergyAt returns the mean fJ of the k-th 9-wire group beat
// after a seam reset.
func (c *Codec) ExpectedBeatEnergyAt(k int) float64 {
	payload, dbi := c.ExpectedBeatEnergySplitAt(k)
	return payload + dbi
}

// ExpectedBeatEnergySplitAt decomposes ExpectedBeatEnergyAt into the
// eight MTA-encoded data wires (payload) and the DBI wire carrying plain
// PAM4 MSBs — the split the energy-attribution profiler records. The two
// parts always sum to ExpectedBeatEnergyAt(k) exactly.
func (c *Codec) ExpectedBeatEnergySplitAt(k int) (payload, dbi float64) {
	return c.ExpectedSeqEnergyAt(k) * GroupDataWires,
		float64(SeqSymbols) * c.model.MeanSymbolEnergy()
}

// EndL3ProbAt returns the probability that the k-th transmitted sequence
// after a seam reset ends at L3 — the chance a wire needs the
// level-shifted idle transition.
func (c *Codec) EndL3ProbAt(k int) float64 {
	pi := c.inversionProbAt(k)
	return (1-pi)*c.endL3Upright + pi*c.endL3Inverted
}

// InversionProbability returns the steady-state probability that a
// sequence is transmitted inverted under back-to-back uniform traffic.
func (c *Codec) InversionProbability() float64 { return c.invProb }

// ExpectedPerBit returns the steady-state mean fJ per data bit of MTA
// signaling on uniform random data: 8 encoded wires carrying 7 bits each
// plus the DBI wire carrying the 8 MSBs as plain PAM4, per 4-UI beat.
// For the standard table this is the paper's ≈574.8 fJ/bit (before
// postamble and logic overhead).
func (c *Codec) ExpectedPerBit() float64 {
	seq := c.ExpectedSeqEnergy() * GroupDataWires
	dbi := float64(SeqSymbols) * c.model.MeanSymbolEnergy()
	return (seq + dbi) / GroupBeatBits
}

// ExpectedBeatEnergy returns the steady-state mean fJ of one 9-wire,
// 4-UI group beat carrying 64 bits of uniform random data.
func (c *Codec) ExpectedBeatEnergy() float64 {
	return c.ExpectedPerBit() * GroupBeatBits
}

// Model returns the energy model the codec was built with.
func (c *Codec) Model() *pam4.EnergyModel { return c.model }
