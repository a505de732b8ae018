// Package core implements the paper's contribution: SMOREs — Sparse
// Multi-level Opportunistic Restricted Encodings for PAM4 buses.
//
// It provides the family of 4-bit sparse codebooks (4b{3..8}s at two or
// three levels), the restricted DBI level-swap that saves additional
// energy without breaking transition guarantees, the level-shifting rule
// that glues sparse bursts to MTA bursts, and the gap-detection /
// code-specification mechanism that chooses a codec from observed command
// spacing with no extra pins, commands, or metadata.
package core

import (
	"fmt"
	"slices"

	"smores/internal/codec"
	"smores/internal/mta"
	"smores/internal/pam4"
)

// NibblesPerByte and related layout constants for sparse group bursts.
const (
	// NibbleBits is the input width of the SMOREs codes.
	NibbleBits = 4
	// BytesPerSlot is the data carried by one group per command clock.
	BytesPerSlot = mta.GroupDataWires
)

// SparseGroupCodec encodes whole group bursts (one byte-group of eight
// data wires plus the DBI wire) with a sparse codebook, optional
// restricted DBI, and seam level shifting.
type SparseGroupCodec struct {
	book  *codec.Codebook
	dbi   bool
	model *pam4.EnergyModel
	// lut flattens the codebook for the encode hot path: lut[nibble]
	// holds that nibble's code word with symbol ui in byte ui (at most
	// MaxSparseSymbols = 8 bytes), so a wire's whole code word is one
	// load and each symbol a shift.
	lut [1 << NibbleBits]uint64
}

// NewSparseGroupCodec wraps a 4-bit codebook. withDBI enables the
// restricted level-swap DBI on top of the sparse code.
func NewSparseGroupCodec(book *codec.Codebook, withDBI bool, m *pam4.EnergyModel) (*SparseGroupCodec, error) {
	if book.Spec().InputBits != NibbleBits {
		return nil, fmt.Errorf("core: sparse group codec needs a %d-bit codebook, got %d",
			NibbleBits, book.Spec().InputBits)
	}
	c := &SparseGroupCodec{book: book, dbi: withDBI, model: m}
	n := book.Spec().OutputSymbols
	if n > MaxSparseSymbols {
		return nil, fmt.Errorf("core: codebook output length %d exceeds %d", n, MaxSparseSymbols)
	}
	for nib := 0; nib < 1<<NibbleBits; nib++ {
		s := book.Encode(uint8(nib))
		for ui := 0; ui < n; ui++ {
			c.lut[nib] |= uint64(s.At(ui)) << (8 * ui)
		}
	}
	return c, nil
}

// Book returns the underlying codebook.
func (c *SparseGroupCodec) Book() *codec.Codebook { return c.book }

// DBI reports whether the restricted DBI level swap is enabled.
func (c *SparseGroupCodec) DBI() bool { return c.dbi }

// Name renders the paper-style codec name, e.g. "4b3s-3/DBI".
func (c *SparseGroupCodec) Name() string {
	n := c.book.Spec().Name()
	if c.dbi {
		n += "/DBI"
	}
	return n
}

// BurstUIs returns the wire time in unit intervals needed to transfer
// dataBytes bytes through the group: two nibbles per byte-per-wire slot,
// each stretched to the codebook's output length.
func (c *SparseGroupCodec) BurstUIs(dataBytes int) int {
	slots := dataBytes / BytesPerSlot
	return slots * 2 * c.book.Spec().OutputSymbols
}

// EncodeGroupBurst encodes data (a multiple of 8 bytes; byte i goes to
// wire i%8) into transmitted columns. state carries each wire's trailing
// transmitted level and is advanced.
//
// Pipeline per the paper: sparse-encode each nibble, apply the restricted
// DBI swap per UI column (if enabled), then apply level shifting to the
// already-swapped symbols.
func (c *SparseGroupCodec) EncodeGroupBurst(data []byte, state *mta.GroupState) ([]mta.Column, error) {
	return c.AppendGroupBurst(nil, data, state)
}

// AppendGroupBurst is EncodeGroupBurst writing into dst (grown as needed)
// so steady-state callers can reuse one scratch buffer across bursts: the
// simulator's exact-data hot path calls this once per group per sparse
// burst and would otherwise allocate the column slice every time.
//
//smores:hotpath
func (c *SparseGroupCodec) AppendGroupBurst(dst []mta.Column, data []byte, state *mta.GroupState) ([]mta.Column, error) {
	if len(data) == 0 || len(data)%BytesPerSlot != 0 {
		//smores:allowalloc cold validation branch, reached only on caller misuse
		return nil, fmt.Errorf("core: burst length %d is not a positive multiple of %d", len(data), BytesPerSlot)
	}
	n := c.book.Spec().OutputSymbols
	codesPerWire := len(data) / BytesPerSlot * 2
	start, end := len(dst), len(dst)+codesPerWire*n
	if cap(dst) < end {
		grown := make([]mta.Column, start, end)
		copy(grown, dst)
		dst = grown
	}
	dst = dst[:end]
	out := dst[start:]

	// Expand each wire's nibble stream into its code sequence, one code
	// slot at a time so DBI sees aligned columns. Each wire's code word
	// gives up its next symbol from the low byte.
	st := *state
	for slot := 0; slot < codesPerWire; slot++ {
		byteIdx := slot / 2 * BytesPerSlot
		shift := uint(slot % 2 * NibbleBits) // low nibble first
		var codes [mta.GroupDataWires]uint64
		for w := range codes {
			codes[w] = c.lut[data[byteIdx+w]>>shift&0x0f]
		}
		for ui := 0; ui < n; ui++ {
			col := &out[slot*n+ui]
			for w := 0; w < mta.GroupDataWires; w++ {
				col[w] = pam4.Level(codes[w])
				codes[w] >>= 8
			}
			col[mta.DBIWire] = pam4.L0
			if c.dbi {
				applyDBISwap(col)
			}
			// Level shifting runs last, on transmitted values.
			for w := range col {
				l := shiftSteps[st[w]][col[w]]
				col[w], st[w] = l, l
			}
		}
	}
	*state = st
	return dst, nil
}

// shiftSteps is the level-shifting rule as a (previous level, level)
// table: a symbol after an L3 goes out one level up, any other as is.
var shiftSteps = func() (t [pam4.NumLevels][pam4.NumLevels]pam4.Level) {
	for prev := range t {
		for l := range t[prev] {
			t[prev][l] = pam4.Level(l)
			if pam4.Level(prev) == pam4.L3 {
				t[prev][l] = pam4.Level(l).ShiftUp()
			}
		}
	}
	return t
}()

// DecodeGroupBurst reverses EncodeGroupBurst. state must hold the same
// trailing levels the encoder saw; it is advanced on success and left
// unchanged on failure. It is AppendDecodeGroupBurst into a fresh slice.
func (c *SparseGroupCodec) DecodeGroupBurst(cols []mta.Column, dataBytes int, state *mta.GroupState) ([]byte, bool) {
	return c.AppendDecodeGroupBurst(nil, cols, dataBytes, state)
}

// AppendDecodeGroupBurst is DecodeGroupBurst appending the decoded bytes
// to dst, so a caller that decodes into storage it owns allocates
// nothing. It returns the extended slice on success, and dst unchanged
// on failure.
func (c *SparseGroupCodec) AppendDecodeGroupBurst(dst []byte, cols []mta.Column, dataBytes int, state *mta.GroupState) ([]byte, bool) {
	n := c.book.Spec().OutputSymbols
	if dataBytes <= 0 || dataBytes%BytesPerSlot != 0 {
		return dst, false
	}
	codesPerWire := dataBytes / BytesPerSlot * 2
	if len(cols) != codesPerWire*n {
		return dst, false
	}
	st := *state
	out := slices.Grow(dst, dataBytes)[:len(dst)+dataBytes]
	data := out[len(dst):]
	clear(data)
	for slot := 0; slot < codesPerWire; slot++ {
		byteIdx := slot / 2 * BytesPerSlot
		loNibble := slot%2 == 0
		var wireSeqs [mta.GroupDataWires]pam4.Seq
		for ui := 0; ui < n; ui++ {
			col := cols[slot*n+ui]
			// Undo level shifting first (receiver subtracts one level
			// from any symbol following an L3), tracking the *received*
			// trailing levels. An L0 right after an L3 is a 3ΔV swing no
			// transmitter can have produced — reject it rather than
			// saturate, so accepted streams always re-encode identically.
			var unshifted mta.Column
			for w := range col {
				v := col[w]
				if st[w] == pam4.L3 {
					if v == pam4.L0 {
						return dst, false
					}
					v = v.ShiftDown()
				}
				unshifted[w] = v
				st[w] = col[w]
			}
			if c.dbi {
				unswapped, ok := UndoDBISwap(unshifted)
				if !ok {
					return dst, false
				}
				// Canonical-swap check: the metadata must be the swap the
				// encoder would have chosen for this column; otherwise the
				// stream is corrupt (and would not re-encode identically).
				preSwap := unswapped
				preSwap[mta.DBIWire] = pam4.L0
				if ApplyDBISwap(preSwap) != unshifted {
					return dst, false
				}
				unshifted = unswapped
			} else if unshifted[mta.DBIWire] != pam4.L0 {
				return dst, false
			}
			for w := 0; w < mta.GroupDataWires; w++ {
				wireSeqs[w] = wireSeqs[w].Append(unshifted[w])
			}
		}
		for w := 0; w < mta.GroupDataWires; w++ {
			nib, ok := c.book.Decode(wireSeqs[w])
			if !ok {
				return dst, false
			}
			if loNibble {
				data[byteIdx+w] |= nib
			} else {
				data[byteIdx+w] |= nib << 4
			}
		}
	}
	*state = st
	return out, true
}
