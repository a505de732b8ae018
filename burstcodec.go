package smores

import (
	"fmt"

	"smores/internal/core"
	"smores/internal/mta"
	"smores/internal/pam4"
)

// BurstCodec is a high-level bidirectional codec for whole 32-byte
// channel bursts: it encodes with MTA (code length 0) or any sparse code
// in the family, maintaining per-wire seam state across bursts exactly as
// the DRAM and GPU PHYs do. The transmitted form is a column stream per
// byte group (nine wires × one level per UI).
//
// Encoder and decoder instances fed the same sequence of (data,
// codeLength) calls stay in lockstep; this is the object the quickstart
// example builds on.
type BurstCodec struct {
	model  *pam4.EnergyModel
	mtaC   *mta.Codec
	family *core.Family
	states [2]mta.GroupState
}

// NewBurstCodec builds a codec with the default energy model, MTA table,
// and paper-faithful sparse family.
func NewBurstCodec() *BurstCodec {
	c := &BurstCodec{model: pam4.DefaultEnergyModel(), mtaC: mta.Default(), family: core.DefaultFamily()}
	for g := range c.states {
		c.states[g] = mta.IdleGroupState()
	}
	return c
}

// BurstBytes is the transfer unit (one 32-byte sector).
const BurstBytes = 32

// EncodedBurst is the transmitted form of one burst: per byte group, one
// column (nine levels, DBI wire last) per unit interval.
type EncodedBurst struct {
	// CodeLength is 0 for MTA or the sparse output symbol count.
	CodeLength int
	// Groups holds the two byte groups' column streams.
	Groups [2][]mta.Column
}

// UIs returns the burst's wire time in unit intervals.
func (e EncodedBurst) UIs() int { return len(e.Groups[0]) }

// EnergyFJ returns the transmitted wire energy under the model.
func (e EncodedBurst) energy(m *pam4.EnergyModel) float64 {
	var total float64
	for g := range e.Groups {
		for _, col := range e.Groups[g] {
			for _, l := range col {
				total += m.SymbolEnergy(l)
			}
		}
	}
	return total
}

// Encode transmits one 32-byte burst. codeLength 0 selects MTA; 3..8
// select the sparse family codecs.
func (c *BurstCodec) Encode(data []byte, codeLength int) (EncodedBurst, error) {
	if len(data) != BurstBytes {
		return EncodedBurst{}, fmt.Errorf("smores: burst must be %d bytes, got %d", BurstBytes, len(data))
	}
	out := EncodedBurst{CodeLength: codeLength}
	for g := 0; g < 2; g++ {
		chunk := data[g*16 : (g+1)*16]
		if codeLength == 0 {
			for beat := 0; beat < 2; beat++ {
				var bytes8 [mta.GroupDataWires]byte
				copy(bytes8[:], chunk[beat*8:])
				cols := c.mtaC.EncodeGroupColumns(bytes8, &c.states[g])
				out.Groups[g] = append(out.Groups[g], cols[:]...)
			}
			continue
		}
		sc := c.family.ByLength(codeLength)
		if sc == nil {
			return EncodedBurst{}, fmt.Errorf("smores: no sparse code of length %d", codeLength)
		}
		cols, err := sc.EncodeGroupBurst(chunk, &c.states[g])
		if err != nil {
			return EncodedBurst{}, err
		}
		out.Groups[g] = cols
	}
	return out, nil
}

// Decode reverses Encode. The decoder must observe the same burst
// sequence the encoder produced.
func (c *BurstCodec) Decode(e EncodedBurst) ([]byte, error) {
	data := make([]byte, BurstBytes)
	for g := 0; g < 2; g++ {
		cols := e.Groups[g]
		if e.CodeLength == 0 {
			if len(cols) != 8 {
				return nil, fmt.Errorf("smores: MTA burst needs 8 columns per group, got %d", len(cols))
			}
			for beat := 0; beat < 2; beat++ {
				var four [mta.SeqSymbols]mta.Column
				copy(four[:], cols[beat*4:(beat+1)*4])
				bytes8, ok := c.mtaC.DecodeGroupBeat(mta.BeatFromColumns(four), &c.states[g])
				if !ok {
					return nil, fmt.Errorf("smores: MTA decode failed (group %d beat %d)", g, beat)
				}
				copy(data[g*16+beat*8:], bytes8[:])
			}
			continue
		}
		sc := c.family.ByLength(e.CodeLength)
		if sc == nil {
			return nil, fmt.Errorf("smores: no sparse code of length %d", e.CodeLength)
		}
		chunk, ok := sc.DecodeGroupBurst(cols, 16, &c.states[g])
		if !ok {
			return nil, fmt.Errorf("smores: sparse decode failed (group %d)", g)
		}
		copy(data[g*16:], chunk)
	}
	return data, nil
}

// Postamble advances the codec through the one-clock L1 postamble (call
// after an MTA burst that precedes idle time).
func (c *BurstCodec) Postamble() {
	for g := range c.states {
		for w := range c.states[g] {
			c.states[g][w] = mta.PostambleLevel
		}
	}
}

// Idle parks the wires at L0 (call after a gap with no postamble need —
// sparse bursts end at L2 or below and may idle directly).
func (c *BurstCodec) Idle() {
	for g := range c.states {
		c.states[g] = mta.IdleGroupState()
	}
}

// BurstEnergy returns the wire energy in femtojoules of an encoded burst
// under the codec's energy model.
func (c *BurstCodec) BurstEnergy(e EncodedBurst) float64 { return e.energy(c.model) }

// PerBit returns the burst's wire energy per data bit.
func (c *BurstCodec) PerBit(e EncodedBurst) float64 {
	return e.energy(c.model) / (BurstBytes * 8)
}
