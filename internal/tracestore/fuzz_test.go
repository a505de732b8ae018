package tracestore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"smores/internal/gpu"
)

// fuzzRecords decodes the fuzzer's byte stream into a record slice:
// 11 bytes per record (u64 sector, u16 think, u8 flags). Payloads, when
// enabled, derive deterministically from the sector.
func fuzzRecords(data []byte, payload bool) []Record {
	var out []Record
	for len(data) >= 11 {
		rec := Record{Access: gpu.Access{
			Sector: binary.LittleEndian.Uint64(data[0:8]),
			Think:  int64(binary.LittleEndian.Uint16(data[8:10])),
			Write:  data[10]&1 == 1,
		}}
		if payload {
			p := make([]byte, PayloadBytes)
			for j := range p {
				p[j] = byte(rec.Sector>>(8*(j%8))) ^ byte(j)
			}
			rec.Payload = p
		}
		out = append(out, rec)
		data = data[11:]
	}
	return out
}

// FuzzStoreRoundTrip checks encode→decode bit-identity on arbitrary
// access streams across block/shard geometries, then that single-byte
// corruption and index truncation are always detected.
func FuzzStoreRoundTrip(f *testing.F) {
	f.Add([]byte{}, byte(0), byte(0), false, uint16(0))
	f.Add([]byte("\x01\x00\x00\x00\x00\x00\x00\x00\x05\x00\x01"), byte(1), byte(2), false, uint16(3))
	f.Add([]byte("\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff"+
		"\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00"), byte(3), byte(1), true, uint16(9))
	f.Fuzz(func(t *testing.T, data []byte, block, shards byte, payload bool, corrupt uint16) {
		recs := fuzzRecords(data, payload)
		meta := Meta{
			Name:         "fuzz",
			Payload:      payload,
			BlockRecords: 1 + int(block)%512,
		}
		dir := filepath.Join(t.TempDir(), "store")
		m, err := WriteRecords(dir, meta, recs, 1+int(shards)%4)
		if err != nil {
			t.Fatalf("WriteRecords: %v", err)
		}
		if m.Records != int64(len(recs)) {
			t.Fatalf("manifest records %d, want %d", m.Records, len(recs))
		}
		s, err := Open(dir)
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		fields := AccessFields
		if payload {
			fields |= SetPayload
		}
		back, err := ReadAll(s, fields)
		if err != nil {
			t.Fatalf("ReadAll: %v", err)
		}
		if len(back) != len(recs) {
			t.Fatalf("read %d records, want %d", len(back), len(recs))
		}
		for i := range back {
			if !sameRecord(back[i], recs[i], fields) {
				t.Fatalf("record %d: got %+v, want %+v", i, back[i], recs[i])
			}
		}
		if len(recs) == 0 {
			return
		}

		// Single-byte corruption in any column file must surface as
		// ErrCorrupt — every column block is CRC-checked.
		col := Field(int(corrupt) % int(numFields))
		if col == FieldPayload && !payload {
			col = FieldSector
		}
		victim := filepath.Join(dir, m.Shards[int(corrupt/7)%len(m.Shards)].Name+"."+col.String())
		fi, err := os.Stat(victim)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() > 0 {
			flipByte(t, victim, int64(corrupt)%fi.Size())
			if _, err := ReadAll(s, fields); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("corrupted %s: err = %v, want ErrCorrupt", victim, err)
			}
			flipByte(t, victim, int64(corrupt)%fi.Size()) // restore
		}

		// Truncating the index must be caught at Open.
		idx := filepath.Join(dir, m.Shards[0].Name+".index")
		ifi, err := os.Stat(idx)
		if err != nil {
			t.Fatal(err)
		}
		drop := 1 + int64(corrupt)%ifi.Size()
		if err := os.Truncate(idx, ifi.Size()-drop); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(dir); !errors.Is(err, ErrBadStore) {
			t.Fatalf("truncated index: err = %v, want ErrBadStore", err)
		}
	})
}

// FuzzImport feeds arbitrary bytes to the importer format selects (0
// SMTR, 1 CSV, 2 fixed binary). An import never panics, and one that
// succeeds leaves a store that opens and reads back exactly the record
// count its manifest claims.
func FuzzImport(f *testing.F) {
	f.Fuzz(func(t *testing.T, format byte, data []byte) {
		dir := filepath.Join(t.TempDir(), "store")
		meta := Meta{Name: "fuzz"}
		var m Manifest
		var err error
		switch format % 3 {
		case 0:
			m, err = ImportSMTR(bytes.NewReader(data), dir, meta)
		case 1:
			m, err = ImportCSV(bytes.NewReader(data), dir, meta, ImportOptions{})
		default:
			m, err = ImportBinary(bytes.NewReader(data), dir, meta, ImportOptions{})
		}
		if err != nil {
			return
		}
		s, err := Open(dir)
		if err != nil {
			t.Fatalf("imported store does not open: %v", err)
		}
		recs, err := ReadAll(s, AccessFields)
		if err != nil {
			t.Fatalf("ReadAll: %v", err)
		}
		if int64(len(recs)) != m.Records {
			t.Fatalf("read %d records, manifest claims %d", len(recs), m.Records)
		}
	})
}

// FuzzOpen writes arbitrary manifest and index bytes beside the column
// files of the one-record store TestOpenRejectsCraftedCounts crafts,
// then opens and reads it. The harness rewrites the index's trailing
// CRC, so inputs get past the checksum to the parser's own checks.
//
// Contract: Open fails with ErrBadStore or ErrCorrupt, or ReadAll
// does, or ReadAll returns exactly Manifest.Records records. Either
// way the bytes allocated across Open and ReadAll (TotalAlloc, which
// counts garbage too) stay within
//
//	16 × the bytes on disk + 512 × the records ReadAll returns + 1 MiB.
//
// The disk term pays for parsing what Open reads. The record term is
// ReadAll's own output — a 48-byte Record each, allocated up to five
// times over while append grows the slice — plus the decode buffers of
// blocks whose column bytes passed their CRCs, so no count in the
// manifest or index can raise it without records really decoding. The
// constant covers the most one index entry can make a reader size
// before its block fails (MaxBlockRecords × MaxVarintLen64 = 640 KiB
// of raw column) and one flate decompressor.
func FuzzOpen(f *testing.F) {
	dir := filepath.Join(f.TempDir(), "store")
	if _, err := WriteRecords(dir, Meta{Name: "crafted"}, genRecords(5, 1, false), 1); err != nil {
		f.Fatal(err)
	}
	var columns int64
	for fld := FieldThink; fld < FieldPayload; fld++ {
		fi, err := os.Stat(filepath.Join(dir, "shard-000000."+fld.String()))
		if err != nil {
			f.Fatal(err)
		}
		columns += fi.Size()
	}
	f.Fuzz(func(t *testing.T, manifest, index []byte) {
		index = append([]byte(nil), index...)
		if n := len(index) - 4; n >= 0 {
			binary.LittleEndian.PutUint32(index[n:], crc32.ChecksumIEEE(index[:n]))
		}
		if err := os.WriteFile(filepath.Join(dir, ManifestName), manifest, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "shard-000000.index"), index, 0o644); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s, err := Open(dir)
		var recs []Record
		if err == nil {
			fields := AccessFields
			if s.Manifest.Payload {
				fields |= SetPayload
			}
			recs, err = ReadAll(s, fields)
		}
		runtime.ReadMemStats(&after)
		switch {
		case err == nil && int64(len(recs)) != s.Manifest.Records:
			t.Fatalf("read %d records, manifest claims %d", len(recs), s.Manifest.Records)
		case err != nil && !errors.Is(err, ErrBadStore) && !errors.Is(err, ErrCorrupt):
			t.Fatalf("untyped error: %v", err)
		}
		disk := uint64(len(manifest)+len(index)) + uint64(columns)
		bound := 16*disk + 512*uint64(len(recs)) + 1<<20
		if got := after.TotalAlloc - before.TotalAlloc; got > bound {
			t.Fatalf("allocated %d bytes for %d on disk and %d records read (bound %d); err = %v",
				got, disk, len(recs), bound, err)
		}
	})
}
