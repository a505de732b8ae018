// Package tracestore is the columnar trace storage layer: a store is a
// directory of shards, and each shard stores every record field in its
// own file — `.think`, `.sector`, `.flags`, plus an optional `.payload`
// column for exact-data captures — written as large independently
// flate-compressed blocks with a per-shard `.index` footer (block
// offsets, record counts, min/max sector, CRC32 per column block).
//
// The layout is modeled on field-per-file sharded formats (PAM): values
// within one column compress far better than interleaved rows, a reader
// that does not need a field never touches its file, and a sector-range
// scan skips whole blocks via the index before any column byte is read.
// Shards are fully independent — parallel writers each own a shard, and
// a reader concatenates shards in manifest order, so replay through
// gpu.Generator is byte-identical to the recorded stream.
//
// Column encodings (before compression):
//
//	think   uvarint per record (idle clocks, always ≥ 0)
//	sector  first record absolute uvarint, then zigzag-varint deltas
//	flags   write flags bit-packed LSB-first, 8 records per byte
//	payload fixed PayloadBytes raw bytes per record
package tracestore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
)

// Magic identifies a shard index file.
var indexMagic = [4]byte{'S', 'M', 'X', 'I'}

// Version is the store format version, stored in both the manifest and
// every shard index.
const Version = 1

// PayloadBytes is the fixed payload size per record: one 32-byte GDDR6X
// sector, matching the simulator's transfer granularity.
const PayloadBytes = 32

// DefaultBlockRecords is the records-per-block default. Large blocks
// are the point of the format: they amortize the flate dictionary and
// the per-block index entry over thousands of records.
const DefaultBlockRecords = 4096

// MaxBlockRecords caps the records per block. A reader sizes its decode
// buffers from a block's record count, so the cap bounds what one
// index entry can make it allocate; Create refuses larger blocks and
// Open rejects an index that claims them.
const MaxBlockRecords = 1 << 16

// ManifestName is the store's directory-level metadata file.
const ManifestName = "manifest.json"

// ErrCorrupt reports a shard whose on-disk bytes fail validation — a
// CRC mismatch, a truncated block, or an undecodable column.
var ErrCorrupt = errors.New("tracestore: corrupt shard")

// ErrBadStore reports a directory that is not a store (missing or
// malformed manifest/index).
var ErrBadStore = errors.New("tracestore: bad store")

// Field identifies one column of the format.
type Field uint8

// The store's columns, in on-disk index order.
const (
	FieldThink Field = iota
	FieldSector
	FieldFlags
	FieldPayload
	numFields
)

// String returns the column name (also the shard file extension).
func (f Field) String() string {
	switch f {
	case FieldThink:
		return "think"
	case FieldSector:
		return "sector"
	case FieldFlags:
		return "flags"
	case FieldPayload:
		return "payload"
	}
	return fmt.Sprintf("field(%d)", uint8(f))
}

// FieldSet is a bitmask of columns a reader wants decoded.
type FieldSet uint8

// Field masks. AccessFields is what gpu.Generator replay needs.
const (
	SetThink   FieldSet = 1 << FieldThink
	SetSector  FieldSet = 1 << FieldSector
	SetFlags   FieldSet = 1 << FieldFlags
	SetPayload FieldSet = 1 << FieldPayload

	AccessFields = SetThink | SetSector | SetFlags
)

// Has reports whether the set contains f.
func (s FieldSet) Has(f Field) bool { return s&(1<<f) != 0 }

// String renders the set as comma-joined column names.
func (s FieldSet) String() string {
	var b bytes.Buffer
	for f := FieldThink; f < numFields; f++ {
		if !s.Has(f) {
			continue
		}
		if b.Len() > 0 {
			b.WriteByte(',')
		}
		b.WriteString(f.String())
	}
	if b.Len() == 0 {
		return "none"
	}
	return b.String()
}

// ParseFields parses a comma-separated column list ("sector,think").
func ParseFields(s string) (FieldSet, error) {
	var set FieldSet
	for _, name := range bytes.Split([]byte(s), []byte{','}) {
		switch string(bytes.TrimSpace(name)) {
		case "think":
			set |= SetThink
		case "sector":
			set |= SetSector
		case "flags":
			set |= SetFlags
		case "payload":
			set |= SetPayload
		case "":
		default:
			return 0, fmt.Errorf("tracestore: unknown field %q (want think, sector, flags, payload)", name)
		}
	}
	if set == 0 {
		return 0, fmt.Errorf("tracestore: empty field list")
	}
	return set, nil
}

// encodeThinks appends the think column's raw (pre-compression) bytes.
func encodeThinks(dst []byte, thinks []int64) []byte {
	var buf [binary.MaxVarintLen64]byte
	for _, t := range thinks {
		n := binary.PutUvarint(buf[:], uint64(t))
		dst = append(dst, buf[:n]...)
	}
	return dst
}

// resize returns n elements of buf's storage when it can hold them, else
// of a fresh slice grown as append grows one, so that blocks a little
// larger than the last rarely allocate again. Callers overwrite every
// element.
func resize[T any](buf []T, n int) []T {
	return slices.Grow(buf[:0], n)[:n]
}

// decodeThinks parses n think values into dst's storage (see resize),
// rejecting values above MaxInt64 (they could not have been written by
// a valid writer — the same guard the row-oriented trace reader
// enforces).
func decodeThinks(dst []int64, raw []byte, n int) ([]int64, error) {
	out := resize(dst, n)
	for i := range out {
		v, k := binary.Uvarint(raw)
		if k <= 0 {
			return nil, fmt.Errorf("think record %d: %w", i, varintErr(k))
		}
		if v > math.MaxInt64 {
			return nil, fmt.Errorf("think record %d: value %d overflows int64", i, v)
		}
		out[i] = int64(v)
		raw = raw[k:]
	}
	if len(raw) != 0 {
		return nil, fmt.Errorf("think column: %d trailing bytes", len(raw))
	}
	return out, nil
}

// varintErr names the failure binary.Uvarint or binary.Varint reports
// with a non-positive length k: the column ended inside a varint (0),
// or the varint runs past 64 bits (negative).
func varintErr(k int) error {
	if k == 0 {
		return io.ErrUnexpectedEOF
	}
	return errVarintOverflow
}

// errVarintOverflow reports a column varint longer than 64 bits.
var errVarintOverflow = errors.New("varint overflows a 64-bit integer")

// encodeSectors appends the sector column's raw bytes: the first value
// absolute, every later value a zigzag-varint delta from its
// predecessor (deltas in a striding access stream are tiny).
func encodeSectors(dst []byte, sectors []uint64) []byte {
	var buf [binary.MaxVarintLen64]byte
	for i, s := range sectors {
		var n int
		if i == 0 {
			n = binary.PutUvarint(buf[:], s)
		} else {
			// Two's-complement difference: wrap-safe for any pair of
			// uint64 sectors, inverted exactly by the wrapping add below.
			n = binary.PutVarint(buf[:], int64(s-sectors[i-1]))
		}
		dst = append(dst, buf[:n]...)
	}
	return dst
}

// decodeSectors parses n sector values into dst's storage.
func decodeSectors(dst []uint64, raw []byte, n int) ([]uint64, error) {
	out := resize(dst, n)
	for i := range out {
		var k int
		if i == 0 {
			out[0], k = binary.Uvarint(raw)
		} else {
			var d int64
			d, k = binary.Varint(raw)
			out[i] = out[i-1] + uint64(d)
		}
		if k <= 0 {
			return nil, fmt.Errorf("sector record %d: %w", i, varintErr(k))
		}
		raw = raw[k:]
	}
	if len(raw) != 0 {
		return nil, fmt.Errorf("sector column: %d trailing bytes", len(raw))
	}
	return out, nil
}

// encodeFlags appends the write-flag column's raw bytes, bit-packed
// LSB-first.
func encodeFlags(dst []byte, writes []bool) []byte {
	for i := 0; i < len(writes); i += 8 {
		var b byte
		for j := 0; j < 8 && i+j < len(writes); j++ {
			if writes[i+j] {
				b |= 1 << j
			}
		}
		dst = append(dst, b)
	}
	return dst
}

// decodeFlags parses n write flags into dst's storage.
func decodeFlags(dst []bool, raw []byte, n int) ([]bool, error) {
	if want := (n + 7) / 8; len(raw) != want {
		return nil, fmt.Errorf("flags column: %d bytes for %d records (want %d)", len(raw), n, want)
	}
	out := resize(dst, n)
	for i := range out {
		out[i] = raw[i/8]&(1<<(i%8)) != 0
	}
	return out, nil
}

// decodePayloads validates the payload column's raw length (the bytes
// are stored verbatim, PayloadBytes per record).
func decodePayloads(raw []byte, n int) ([]byte, error) {
	if want := n * PayloadBytes; len(raw) != want {
		return nil, fmt.Errorf("payload column: %d bytes for %d records (want %d)", len(raw), n, want)
	}
	return raw, nil
}

// readFull drains r expecting exactly want bytes, into dst's storage.
func readFull(r io.Reader, dst []byte, want int) ([]byte, error) {
	out := resize(dst, want)
	if _, err := io.ReadFull(r, out); err != nil {
		return nil, err
	}
	// A longer stream than the index claims is as corrupt as a shorter one.
	var probe [1]byte
	if n, _ := r.Read(probe[:]); n != 0 {
		return nil, fmt.Errorf("block longer than indexed length %d", want)
	}
	return out, nil
}
