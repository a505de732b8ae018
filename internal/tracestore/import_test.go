package tracestore

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"smores/internal/gpu"
	"smores/internal/workload"
)

func importDir(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "store")
}

func TestImportCSVAutoMapping(t *testing.T) {
	csv := strings.Join([]string{
		"addr,think,op",
		"0x0,0,R",
		"0x40,3,W",
		"96,0,read",
		"0x1000,12,st",
	}, "\n")
	dir := importDir(t)
	m, err := ImportCSV(strings.NewReader(csv), dir, Meta{Name: "csvapp"}, ImportOptions{})
	if err != nil {
		t.Fatalf("ImportCSV: %v", err)
	}
	if m.Records != 4 || m.Writes != 2 || m.Source != "csv" {
		t.Fatalf("manifest %+v", m)
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ReadAll(s, AccessFields)
	if err != nil {
		t.Fatal(err)
	}
	// Byte addresses divide by 32 to sectors.
	wantSectors := []uint64{0, 2, 3, 128}
	wantWrites := []bool{false, true, false, true}
	wantThinks := []int64{0, 3, 0, 12}
	for i := range back {
		if back[i].Sector != wantSectors[i] || back[i].Write != wantWrites[i] || back[i].Think != wantThinks[i] {
			t.Fatalf("record %d: %+v", i, back[i])
		}
	}
}

func TestImportCSVSectorColumn(t *testing.T) {
	// A "sector" header holds sector indexes directly — no division.
	csv := "sector\n7\n8\n9\n"
	dir := importDir(t)
	if _, err := ImportCSV(strings.NewReader(csv), dir, Meta{Name: "sec"}, ImportOptions{}); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ReadAll(s, AccessFields)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []uint64{7, 8, 9} {
		if back[i].Sector != want {
			t.Fatalf("record %d: sector %d, want %d", i, back[i].Sector, want)
		}
	}
}

func TestImportCSVExplicitColumns(t *testing.T) {
	csv := "foo,bar,baz\n0x80,w,5\n"
	dir := importDir(t)
	m, err := ImportCSV(strings.NewReader(csv), dir, Meta{Name: "explicit"},
		ImportOptions{AddrCol: "foo", OpCol: "bar", ThinkCol: "baz", SectorBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	if m.Records != 1 || m.Writes != 1 {
		t.Fatalf("manifest %+v", m)
	}
	if m.MaxSector != 2 { // 0x80 / 64
		t.Fatalf("max sector %d, want 2", m.MaxSector)
	}
}

func TestImportCSVPayload(t *testing.T) {
	payload := bytes.Repeat([]byte{0xAB}, PayloadBytes)
	csv := "addr,data\n0x40," + hex.EncodeToString(payload) + "\n"
	dir := importDir(t)
	if _, err := ImportCSV(strings.NewReader(csv), dir, Meta{Name: "pay", Payload: true}, ImportOptions{}); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ReadAll(s, AccessFields|SetPayload)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back[0].Payload, payload) {
		t.Fatalf("payload %x", back[0].Payload)
	}
}

func TestImportCSVErrors(t *testing.T) {
	for name, tc := range map[string]struct {
		csv  string
		meta Meta
		opts ImportOptions
	}{
		"empty":            {"", Meta{Name: "x"}, ImportOptions{}},
		"no-addr-column":   {"think,op\n1,R\n", Meta{Name: "x"}, ImportOptions{}},
		"bad-addr":         {"addr\nnotanumber\n", Meta{Name: "x"}, ImportOptions{}},
		"bad-think":        {"addr,think\n0,-4\n", Meta{Name: "x"}, ImportOptions{}},
		"bad-op":           {"addr,op\n0,maybe\n", Meta{Name: "x"}, ImportOptions{}},
		"missing-explicit": {"addr\n0\n", Meta{Name: "x"}, ImportOptions{ThinkCol: "nope"}},
		"payload-missing":  {"addr\n0\n", Meta{Name: "x", Payload: true}, ImportOptions{}},
		"payload-short":    {"addr,data\n0,abcd\n", Meta{Name: "x", Payload: true}, ImportOptions{}},
		"negative-sector":  {"addr\n0x100\n", Meta{Name: "x"}, ImportOptions{SectorBytes: -1}},
	} {
		t.Run(name, func(t *testing.T) {
			if _, err := ImportCSV(strings.NewReader(tc.csv), importDir(t), tc.meta, tc.opts); err == nil {
				t.Fatal("import succeeded")
			}
		})
	}
}

func TestImportBinary(t *testing.T) {
	var buf bytes.Buffer
	le := binary.LittleEndian
	write := func(addr uint64, think uint32, flags byte) {
		var rec [binaryRecordSize]byte
		le.PutUint64(rec[0:8], addr)
		le.PutUint32(rec[8:12], think)
		rec[12] = flags
		buf.Write(rec[:])
	}
	write(0, 0, 0)
	write(64, 7, 1)
	write(0x2000, 2, 0)
	dir := importDir(t)
	m, err := ImportBinary(bytes.NewReader(buf.Bytes()), dir, Meta{Name: "bin"}, ImportOptions{})
	if err != nil {
		t.Fatalf("ImportBinary: %v", err)
	}
	if m.Records != 3 || m.Writes != 1 || m.Source != "binary" {
		t.Fatalf("manifest %+v", m)
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ReadAll(s, AccessFields)
	if err != nil {
		t.Fatal(err)
	}
	if back[1].Sector != 2 || !back[1].Write || back[1].Think != 7 {
		t.Fatalf("record 1: %+v", back[1])
	}
	if back[2].Sector != 0x100 {
		t.Fatalf("record 2: %+v", back[2])
	}
}

func TestImportBinaryTruncated(t *testing.T) {
	if _, err := ImportBinary(bytes.NewReader(make([]byte, binaryRecordSize+3)),
		importDir(t), Meta{Name: "trunc"}, ImportOptions{}); err == nil {
		t.Fatal("truncated record accepted")
	}
}

func TestImportBinaryNegativeSectorBytes(t *testing.T) {
	dir := importDir(t)
	if _, err := ImportBinary(bytes.NewReader(make([]byte, binaryRecordSize)),
		dir, Meta{Name: "neg"}, ImportOptions{SectorBytes: -32}); err == nil {
		t.Fatal("negative sector width accepted")
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatalf("rejected import left %s behind (stat err %v)", dir, err)
	}
}

// smtrBytes encodes recs as an SMTR v1 trace: the 8-byte header, then
// think and (sector<<1 | write) as uvarints per record.
func smtrBytes(recs []Record) []byte {
	out := append([]byte(nil), smtrMagic[:]...)
	out = append(out, smtrVersion, 0, 0, 0)
	for _, rec := range recs {
		packed := rec.Sector << 1
		if rec.Write {
			packed |= 1
		}
		out = binary.AppendUvarint(out, uint64(rec.Think))
		out = binary.AppendUvarint(out, packed)
	}
	return out
}

// TestImportSMTR: importing an SMTR v1 stream yields a store whose
// records are the encoded accesses, in order, for a multi-block random
// stream and for a workload generator's stream.
func TestImportSMTR(t *testing.T) {
	p, ok := workload.ByName("bfs")
	if !ok {
		t.Fatal("bfs workload missing")
	}
	g, err := workload.NewGenerator(p, 5)
	if err != nil {
		t.Fatal(err)
	}
	bfs := make([]Record, 5000)
	for i := range bfs {
		bfs[i].Access, _ = g.Next()
	}
	for name, tc := range map[string]struct {
		recs []Record
		meta Meta
	}{
		"multi-block":  {genRecords(13, 1500, false), Meta{Name: "smtr-rt", BlockRecords: 200}},
		"bfs-workload": {bfs, Meta{Name: "smtr-bfs"}},
	} {
		t.Run(name, func(t *testing.T) {
			dir := importDir(t)
			m, err := ImportSMTR(bytes.NewReader(smtrBytes(tc.recs)), dir, tc.meta)
			if err != nil {
				t.Fatalf("ImportSMTR: %v", err)
			}
			if m.Records != int64(len(tc.recs)) || m.Source != "smtr" {
				t.Fatalf("manifest %+v", m)
			}
			s, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			back, err := ReadAll(s, AccessFields)
			if err != nil {
				t.Fatal(err)
			}
			if len(back) != len(tc.recs) {
				t.Fatalf("read %d records, wrote %d", len(back), len(tc.recs))
			}
			for i := range back {
				if back[i].Access != tc.recs[i].Access {
					t.Fatalf("record %d: %+v vs %+v", i, back[i].Access, tc.recs[i].Access)
				}
			}
		})
	}
}

// TestImportSMTREmpty pins the empty-trace contract: a zero-byte SMTR
// input is a valid empty trace, not a truncated header.
func TestImportSMTREmpty(t *testing.T) {
	dir := importDir(t)
	m, err := ImportSMTR(bytes.NewReader(nil), dir, Meta{Name: "empty-smtr"})
	if err != nil {
		t.Fatalf("ImportSMTR(empty): %v", err)
	}
	if m.Records != 0 {
		t.Fatalf("records = %d", m.Records)
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if back, err := ReadAll(s, AccessFields); err != nil || len(back) != 0 {
		t.Fatalf("ReadAll: %d records, err %v", len(back), err)
	}
}

// TestImportSMTREmptyReplay: the store imported from a zero-byte SMTR
// input replays no access and reports no error.
func TestImportSMTREmptyReplay(t *testing.T) {
	dir := importDir(t)
	if _, err := ImportSMTR(bytes.NewReader(nil), dir, Meta{Name: "empty-smtr"}); err != nil {
		t.Fatalf("ImportSMTR(empty): %v", err)
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Replayer()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := rep.Next(); ok {
		t.Fatal("empty trace replayed an access")
	}
	if rep.Err() != nil {
		t.Fatalf("Err() = %v", rep.Err())
	}
}

// TestImportSMTRBadHeader: a truncated header, wrong magic or wrong
// version fails with ErrBadSMTRHeader before the store directory exists.
func TestImportSMTRBadHeader(t *testing.T) {
	for name, in := range map[string]string{
		"short":       "SMT",
		"one-short":   "SMTR\x01\x00\x00", // one byte short of a full header
		"magic":       "XXXX\x01\x00\x00\x00",
		"version":     "SMTR\x63\x00\x00\x00", // version 99
		"text-stream": "garbage!",
		"not-a-trace": "NOPE1234",
	} {
		t.Run(name, func(t *testing.T) {
			dir := importDir(t)
			_, err := ImportSMTR(strings.NewReader(in), dir, Meta{Name: "bad"})
			if !errors.Is(err, ErrBadSMTRHeader) {
				t.Fatalf("err = %v, want ErrBadSMTRHeader", err)
			}
			if _, err := os.Stat(dir); !os.IsNotExist(err) {
				t.Fatalf("bad header left %s behind (stat err %v)", dir, err)
			}
		})
	}
}

// TestImportSMTRThinkOverflow: a think uvarint above MaxInt64 (which no
// encoder of a valid access can produce) is rejected, not wrapped
// negative.
func TestImportSMTRThinkOverflow(t *testing.T) {
	in := smtrBytes(nil)
	in = binary.AppendUvarint(in, 1<<63)
	in = append(in, 0x02) // sector 1, read
	_, err := ImportSMTR(bytes.NewReader(in), importDir(t), Meta{Name: "ovf"})
	if err == nil || errors.Is(err, ErrBadSMTRHeader) || !strings.Contains(err.Error(), "overflows int64") {
		t.Fatalf("err = %v, want a think-overflow record error", err)
	}
}

func TestImportSMTRTruncatedRecord(t *testing.T) {
	// 8 header bytes, a 2-byte think (300), a 6-byte packed sector (2^41).
	full := smtrBytes([]Record{{Access: gpu.Access{Sector: 1 << 40, Think: 300}}})
	if len(full) != 16 {
		t.Fatalf("fixture is %d bytes, want 16", len(full))
	}
	for name, keep := range map[string]int{
		"mid-think":   9,
		"after-think": 10,
		"mid-sector":  14,
	} {
		t.Run(name, func(t *testing.T) {
			if _, err := ImportSMTR(bytes.NewReader(full[:keep]), importDir(t), Meta{Name: "trunc"}); err == nil {
				t.Fatalf("record cut to %d of %d bytes accepted", keep, len(full))
			}
		})
	}
}
