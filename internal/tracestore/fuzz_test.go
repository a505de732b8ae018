package tracestore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
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
