package tracestore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
)

// colLoc locates one column's compressed block inside its field file.
type colLoc struct {
	Offset  int64
	CompLen uint32
	RawLen  uint32
	CRC     uint32 // IEEE CRC32 of the compressed bytes
}

// blockIndex is one block's entry in the shard index: enough to read
// any subset of columns independently and to skip the block entirely on
// a sector-range scan.
type blockIndex struct {
	Records   int
	MinSector uint64
	MaxSector uint64
	Cols      [numFields]colLoc // FieldPayload entry is zero when absent
}

// shardIndex is the parsed `.index` footer of one shard.
type shardIndex struct {
	Name         string
	Payload      bool
	BlockRecords int
	Records      int64
	Blocks       []blockIndex
}

// fields returns the columns this shard stores.
func (si *shardIndex) fields() FieldSet {
	set := AccessFields
	if si.Payload {
		set |= SetPayload
	}
	return set
}

// marshalIndex serializes a shard index. Layout (little-endian):
//
//	magic "SMXI" · u16 version · u16 flags (bit0 payload)
//	u32 blockRecords · u64 records · u32 blocks
//	per block: u32 records · u64 minSector · u64 maxSector ·
//	           per stored column: u64 offset · u32 compLen · u32 rawLen · u32 crc
//	u32 CRC32 of everything above
func marshalIndex(si *shardIndex) []byte {
	var b bytes.Buffer
	b.Write(indexMagic[:])
	var flags uint16
	if si.Payload {
		flags |= 1
	}
	le := binary.LittleEndian
	var scratch [8]byte
	put16 := func(v uint16) { le.PutUint16(scratch[:2], v); b.Write(scratch[:2]) }
	put32 := func(v uint32) { le.PutUint32(scratch[:4], v); b.Write(scratch[:4]) }
	put64 := func(v uint64) { le.PutUint64(scratch[:8], v); b.Write(scratch[:8]) }
	put16(Version)
	put16(flags)
	put32(uint32(si.BlockRecords))
	put64(uint64(si.Records))
	put32(uint32(len(si.Blocks)))
	for _, blk := range si.Blocks {
		put32(uint32(blk.Records))
		put64(blk.MinSector)
		put64(blk.MaxSector)
		for f := FieldThink; f < numFields; f++ {
			if f == FieldPayload && !si.Payload {
				continue
			}
			c := blk.Cols[f]
			put64(uint64(c.Offset))
			put32(c.CompLen)
			put32(c.RawLen)
			put32(c.CRC)
		}
	}
	put32(crc32.ChecksumIEEE(b.Bytes()))
	return b.Bytes()
}

// parseIndex parses and validates a shard index file's bytes.
func parseIndex(name string, data []byte) (*shardIndex, error) {
	bad := func(format string, args ...any) error {
		return fmt.Errorf("%w: shard %s index: %s", ErrBadStore, name, fmt.Sprintf(format, args...))
	}
	if len(data) < 4+2+2+4+8+4+4 {
		return nil, bad("truncated (%d bytes)", len(data))
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	le := binary.LittleEndian
	if got, want := le.Uint32(tail), crc32.ChecksumIEEE(body); got != want {
		return nil, bad("checksum %08x, want %08x", got, want)
	}
	if [4]byte(body[:4]) != indexMagic {
		return nil, bad("magic %q", body[:4])
	}
	if v := le.Uint16(body[4:6]); v != Version {
		return nil, bad("unsupported version %d", v)
	}
	si := &shardIndex{
		Name:         name,
		Payload:      le.Uint16(body[6:8])&1 != 0,
		BlockRecords: int(le.Uint32(body[8:12])),
		Records:      int64(le.Uint64(body[12:20])),
	}
	if si.BlockRecords < 1 || si.BlockRecords > MaxBlockRecords {
		return nil, bad("%d records per block outside [1, %d]", si.BlockRecords, MaxBlockRecords)
	}
	nBlocks := int(le.Uint32(body[20:24]))
	pos := 24
	need := func(n int) bool { return pos+n <= len(body) }
	cols := 3
	if si.Payload {
		cols = 4
	}
	perBlock := 4 + 8 + 8 + cols*(8+4+4+4)
	if !need(nBlocks * perBlock) {
		return nil, bad("%d blocks do not fit in %d bytes", nBlocks, len(body))
	}
	var total int64
	for i := 0; i < nBlocks; i++ {
		var blk blockIndex
		blk.Records = int(le.Uint32(body[pos:]))
		blk.MinSector = le.Uint64(body[pos+4:])
		blk.MaxSector = le.Uint64(body[pos+12:])
		pos += 20
		for f := FieldThink; f < numFields; f++ {
			if f == FieldPayload && !si.Payload {
				continue
			}
			blk.Cols[f] = colLoc{
				Offset:  int64(le.Uint64(body[pos:])),
				CompLen: le.Uint32(body[pos+8:]),
				RawLen:  le.Uint32(body[pos+12:]),
				CRC:     le.Uint32(body[pos+16:]),
			}
			pos += 20
		}
		if blk.Records <= 0 || blk.Records > si.BlockRecords {
			return nil, bad("block %d has %d records (block size %d)", i, blk.Records, si.BlockRecords)
		}
		for f := FieldThink; f < numFields; f++ {
			if f == FieldPayload && !si.Payload {
				continue
			}
			if lo, hi := rawLenBounds(f, blk.Records); int64(blk.Cols[f].RawLen) < lo || int64(blk.Cols[f].RawLen) > hi {
				return nil, bad("block %d %s column claims %d raw bytes for %d records",
					i, f, blk.Cols[f].RawLen, blk.Records)
			}
		}
		total += int64(blk.Records)
		si.Blocks = append(si.Blocks, blk)
	}
	if pos != len(body) {
		return nil, bad("%d trailing bytes", len(body)-pos)
	}
	if total != si.Records {
		return nil, bad("blocks hold %d records, header claims %d", total, si.Records)
	}
	return si, nil
}

// rawLenBounds is the range of uncompressed lengths column f can have
// for n records: a varint is 1 to MaxVarintLen64 bytes, flags pack 8
// records a byte, and payloads are fixed-size.
func rawLenBounds(f Field, n int) (lo, hi int64) {
	switch f {
	case FieldFlags:
		lo = int64(n+7) / 8
		return lo, lo
	case FieldPayload:
		lo = int64(n) * PayloadBytes
		return lo, lo
	}
	return int64(n), int64(n) * binary.MaxVarintLen64
}

// loadIndex reads and parses one shard's index file.
func loadIndex(path, name string) (*shardIndex, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("%w: shard %s: %v", ErrBadStore, name, err)
	}
	return parseIndex(name, data)
}
