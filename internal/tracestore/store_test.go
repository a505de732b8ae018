package tracestore

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"smores/internal/gpu"
	"smores/internal/rng"
)

// genRecords builds a deterministic pseudo-random record stream shaped
// like real traffic (striding bursts, occasional jumps).
func genRecords(seed uint64, n int, payload bool) []Record {
	r := rng.New(seed)
	out := make([]Record, n)
	cursor := r.Uint64() % (1 << 30)
	for i := range out {
		if r.Bool(0.2) {
			cursor = r.Uint64() % (1 << 30)
		} else {
			cursor++
		}
		out[i] = Record{Access: gpu.Access{
			Sector: cursor,
			Write:  r.Bool(0.3),
			Think:  int64(r.Intn(64)),
		}}
		if payload {
			p := make([]byte, PayloadBytes)
			for j := range p {
				p[j] = byte(r.Uint64())
			}
			out[i].Payload = p
		}
	}
	return out
}

// mustWrite builds a store in a fresh temp dir and returns it opened.
func mustWrite(t *testing.T, recs []Record, meta Meta, shards int) (*Store, string) {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "store")
	if _, err := WriteRecords(dir, meta, recs, shards); err != nil {
		t.Fatalf("WriteRecords: %v", err)
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s, dir
}

func sameRecord(a, b Record, fields FieldSet) bool {
	if fields.Has(FieldThink) && a.Think != b.Think {
		return false
	}
	if fields.Has(FieldSector) && a.Sector != b.Sector {
		return false
	}
	if fields.Has(FieldFlags) && a.Write != b.Write {
		return false
	}
	if fields.Has(FieldPayload) && string(a.Payload) != string(b.Payload) {
		return false
	}
	return true
}

func TestRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name    string
		n       int
		payload bool
		shards  int
		block   int
	}{
		{"single-shard", 1000, false, 1, 128},
		{"multi-shard", 5000, false, 4, 256},
		{"payload", 700, true, 3, 64},
		{"partial-block", 100, false, 1, 4096},
		{"one-record", 1, false, 1, 4096},
	} {
		t.Run(tc.name, func(t *testing.T) {
			recs := genRecords(7, tc.n, tc.payload)
			meta := Meta{Name: "rt", Payload: tc.payload, BlockRecords: tc.block}
			s, _ := mustWrite(t, recs, meta, tc.shards)
			if s.Records() != int64(tc.n) {
				t.Fatalf("Records() = %d, want %d", s.Records(), tc.n)
			}
			fields := AccessFields
			if tc.payload {
				fields |= SetPayload
			}
			back, err := ReadAll(s, fields)
			if err != nil {
				t.Fatalf("ReadAll: %v", err)
			}
			if len(back) != tc.n {
				t.Fatalf("read %d records, want %d", len(back), tc.n)
			}
			for i := range back {
				if !sameRecord(back[i], recs[i], fields) {
					t.Fatalf("record %d: got %+v, want %+v", i, back[i], recs[i])
				}
			}
		})
	}
}

func TestEmptyStore(t *testing.T) {
	s, _ := mustWrite(t, nil, Meta{Name: "empty"}, 1)
	if s.Records() != 0 {
		t.Fatalf("Records() = %d, want 0", s.Records())
	}
	back, err := ReadAll(s, AccessFields)
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	if len(back) != 0 {
		t.Fatalf("read %d records from empty store", len(back))
	}
	p, err := s.Replayer()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := p.Next(); ok {
		t.Fatal("empty store replayed an access")
	}
	if p.Err() != nil {
		t.Fatalf("Err() = %v", p.Err())
	}
}

// TestFieldSkip is the acceptance gate: a sector-only scan must read
// zero bytes of the think, flags, and payload columns — the files are
// never even opened.
func TestFieldSkip(t *testing.T) {
	recs := genRecords(11, 4000, true)
	s, dir := mustWrite(t, recs, Meta{Name: "skip", Payload: true, BlockRecords: 512}, 2)

	// Deleting the unrequested column files proves they are never opened.
	for _, si := range s.Manifest.Shards {
		for _, ext := range []string{"think", "flags", "payload"} {
			if err := os.Remove(filepath.Join(dir, si.Name+"."+ext)); err != nil {
				t.Fatal(err)
			}
		}
	}
	r, err := s.NewReader(ReadOptions{Fields: SetSector})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var n int
	for {
		rec, err := r.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatalf("record %d: %v", n, err)
		}
		if rec.Sector != recs[n].Sector {
			t.Fatalf("record %d: sector %d, want %d", n, rec.Sector, recs[n].Sector)
		}
		if rec.Think != 0 || rec.Write || rec.Payload != nil {
			t.Fatalf("record %d: unrequested fields populated: %+v", n, rec)
		}
		n++
	}
	if n != len(recs) {
		t.Fatalf("scanned %d records, want %d", n, len(recs))
	}
	if got := r.BytesRead(FieldSector); got == 0 {
		t.Fatal("sector column read zero bytes")
	}
	for _, f := range []Field{FieldThink, FieldFlags, FieldPayload} {
		if got := r.BytesRead(f); got != 0 {
			t.Fatalf("%s column read %d bytes during a sector-only scan", f, got)
		}
	}
}

func TestSectorRangeSkip(t *testing.T) {
	// Two distinct sector bands so whole blocks are skippable.
	var recs []Record
	r := rng.New(3)
	for i := 0; i < 2048; i++ {
		base := uint64(0)
		if i >= 1024 {
			base = 1 << 40
		}
		recs = append(recs, Record{Access: gpu.Access{Sector: base + uint64(r.Intn(1000))}})
	}
	s, _ := mustWrite(t, recs, Meta{Name: "range", BlockRecords: 256}, 1)
	rd, err := s.NewReader(ReadOptions{
		Fields:       SetSector,
		FilterSector: true,
		MinSector:    1 << 40,
		MaxSector:    1<<40 + 1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()
	var n int
	for {
		rec, err := rd.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if rec.Sector < 1<<40 {
			t.Fatalf("filter leaked sector %d", rec.Sector)
		}
		n++
	}
	if n != 1024 {
		t.Fatalf("filtered scan returned %d records, want 1024", n)
	}
	if rd.BlocksSkipped() == 0 {
		t.Fatal("no blocks skipped despite disjoint sector bands")
	}
}

func TestReaderOptionErrors(t *testing.T) {
	s, _ := mustWrite(t, genRecords(1, 10, false), Meta{Name: "opts"}, 1)
	if _, err := s.NewReader(ReadOptions{Fields: SetPayload}); err == nil {
		t.Fatal("payload read of a payload-less store succeeded")
	}
	if _, err := s.NewReader(ReadOptions{Fields: SetThink, FilterSector: true}); err == nil {
		t.Fatal("sector filter without sector field succeeded")
	}
	if _, err := s.NewReader(ReadOptions{FilterSector: true, MinSector: 5, MaxSector: 1}); err == nil {
		t.Fatal("empty filter range accepted")
	}
}

func TestWriterMisuse(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "s")
	if _, err := Create(dir, Meta{}); err == nil {
		t.Fatal("Create accepted an unnamed store")
	}
	if _, err := Create(dir, Meta{Name: "m", BlockRecords: MaxBlockRecords + 1}); err == nil {
		t.Fatal("Create accepted blocks over MaxBlockRecords")
	}
	w, err := Create(dir, Meta{Name: "m"})
	if err != nil {
		t.Fatal(err)
	}
	sw, err := w.NewShard()
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.Append(Record{Access: gpu.Access{Think: -1}}); err == nil {
		t.Fatal("negative think accepted")
	}
	// The shard is poisoned now; later appends fail fast.
	if err := sw.AppendAccess(gpu.Access{}); err == nil {
		t.Fatal("append after failure succeeded")
	}
	if _, err := w.Finalize(); err == nil {
		t.Fatal("Finalize with a failed shard succeeded")
	}

	dir2 := filepath.Join(t.TempDir(), "s2")
	w2, err := Create(dir2, Meta{Name: "m"})
	if err != nil {
		t.Fatal(err)
	}
	sw2, err := w2.NewShard()
	if err != nil {
		t.Fatal(err)
	}
	if err := sw2.Append(Record{Payload: make([]byte, PayloadBytes)}); err == nil {
		t.Fatal("payload accepted by payload-less store")
	}

	dir3 := filepath.Join(t.TempDir(), "s3")
	w3, err := Create(dir3, Meta{Name: "m", Payload: true})
	if err != nil {
		t.Fatal(err)
	}
	sw3, err := w3.NewShard()
	if err != nil {
		t.Fatal(err)
	}
	if err := sw3.Append(Record{Payload: []byte{1, 2}}); err == nil {
		t.Fatal("short payload accepted")
	}

	// A finished store refuses a second Create.
	if _, err := WriteRecords(filepath.Join(t.TempDir(), "dup"), Meta{Name: "d"}, nil, 1); err != nil {
		t.Fatal(err)
	}
	dupDir := filepath.Join(t.TempDir(), "dup2")
	if _, err := WriteRecords(dupDir, Meta{Name: "d"}, nil, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := Create(dupDir, Meta{Name: "d"}); err == nil {
		t.Fatal("Create over an existing store succeeded")
	}
}

// TestWriteRecordsRejectsNegativeThink: recording writes through
// WriteRecords, so a negative think in any shard's segment fails the
// whole write and leaves no openable store behind.
func TestWriteRecordsRejectsNegativeThink(t *testing.T) {
	recs := genRecords(9, 400, false)
	recs[len(recs)-1].Think = -1 // in the last of the shards' segments
	dir := filepath.Join(t.TempDir(), "neg")
	if _, err := WriteRecords(dir, Meta{Name: "neg"}, recs, 3); err == nil {
		t.Fatal("negative think accepted")
	}
	if _, err := Open(dir); err == nil {
		t.Fatal("failed write left an openable store")
	}
}

func TestStats(t *testing.T) {
	recs := genRecords(5, 3000, true)
	s, _ := mustWrite(t, recs, Meta{Name: "stats", Payload: true, BlockRecords: 512}, 2)
	st := s.Stats()
	if st.Records != 3000 || st.Shards != 2 {
		t.Fatalf("stats header: %+v", st)
	}
	if len(st.Columns) != 4 {
		t.Fatalf("got %d columns, want 4", len(st.Columns))
	}
	var raw, comp int64
	for _, c := range st.Columns {
		if c.RawBytes <= 0 || c.CompressedBytes <= 0 {
			t.Fatalf("column %s has empty footprint: %+v", c.Field, c)
		}
		raw += c.RawBytes
		comp += c.CompressedBytes
	}
	if raw != st.RawBytes || comp != st.CompressedBytes {
		t.Fatalf("totals disagree with columns: %+v", st)
	}
	// Bit-packed flags must compress far below 1 byte/record even before
	// flate; the roll-up ratio must therefore beat 1:1 on raw columns.
	if st.Ratio <= 0 {
		t.Fatalf("ratio %v", st.Ratio)
	}
}

func TestCorruption(t *testing.T) {
	recs := genRecords(9, 2000, false)
	meta := Meta{Name: "corrupt", BlockRecords: 256}

	t.Run("column-byte-flip", func(t *testing.T) {
		s, dir := mustWrite(t, recs, meta, 1)
		path := filepath.Join(dir, s.Manifest.Shards[0].Name+".sector")
		flipByte(t, path, 10)
		if _, err := ReadAll(s, AccessFields); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("err = %v, want ErrCorrupt", err)
		}
	})
	t.Run("column-truncated", func(t *testing.T) {
		s, dir := mustWrite(t, recs, meta, 1)
		path := filepath.Join(dir, s.Manifest.Shards[0].Name+".think")
		truncateFile(t, path, 5)
		if _, err := ReadAll(s, AccessFields); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("err = %v, want ErrCorrupt", err)
		}
	})
	t.Run("index-byte-flip", func(t *testing.T) {
		_, dir := mustWrite(t, recs, meta, 1)
		flipByte(t, filepath.Join(dir, "shard-000000.index"), 9)
		if _, err := Open(dir); !errors.Is(err, ErrBadStore) {
			t.Fatalf("err = %v, want ErrBadStore", err)
		}
	})
	t.Run("index-truncated", func(t *testing.T) {
		_, dir := mustWrite(t, recs, meta, 1)
		truncateFile(t, filepath.Join(dir, "shard-000000.index"), 7)
		if _, err := Open(dir); !errors.Is(err, ErrBadStore) {
			t.Fatalf("err = %v, want ErrBadStore", err)
		}
	})
	t.Run("index-missing", func(t *testing.T) {
		_, dir := mustWrite(t, recs, meta, 1)
		if err := os.Remove(filepath.Join(dir, "shard-000000.index")); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(dir); !errors.Is(err, ErrBadStore) {
			t.Fatalf("err = %v, want ErrBadStore", err)
		}
	})
	t.Run("manifest-records-mismatch", func(t *testing.T) {
		_, dir := mustWrite(t, recs, meta, 1)
		data, err := os.ReadFile(filepath.Join(dir, ManifestName))
		if err != nil {
			t.Fatal(err)
		}
		mangled := []byte(string(data))
		mangled = replaceOnce(t, mangled, `"records": 2000`, `"records": 1999`)
		if err := os.WriteFile(filepath.Join(dir, ManifestName), mangled, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(dir); !errors.Is(err, ErrBadStore) {
			t.Fatalf("err = %v, want ErrBadStore", err)
		}
	})
	t.Run("not-a-store", func(t *testing.T) {
		if _, err := Open(t.TempDir()); !errors.Is(err, ErrBadStore) {
			t.Fatalf("err = %v, want ErrBadStore", err)
		}
	})
}

// TestOpenRejectsCraftedCounts: an index whose CRC was recomputed over
// inflated counts must fail with a typed error — at Open, or at the
// first record — without allocating what the counts claim.
func TestOpenRejectsCraftedCounts(t *testing.T) {
	const huge = 1 << 24
	le := binary.LittleEndian
	claimRecords := func(t *testing.T, dir string, body []byte) {
		le.PutUint64(body[12:20], huge) // shard records
		le.PutUint32(body[24:28], huge) // block 0 records
		rewriteManifest(t, dir, func(m *Manifest) {
			m.Records, m.Shards[0].Records = huge, huge
		})
	}
	for _, tc := range []struct {
		name  string
		craft func(t *testing.T, dir string, body []byte)
	}{
		{"block-records", claimRecords},
		{"think-complen", func(_ *testing.T, _ string, body []byte) {
			le.PutUint32(body[24+20+8:], 1<<28) // block 0, think column CompLen
		}},
		{"block-size-and-records", func(t *testing.T, dir string, body []byte) {
			le.PutUint32(body[8:12], huge) // records per block
			claimRecords(t, dir, body)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, dir := mustWrite(t, genRecords(5, 1, false), Meta{Name: "crafted"}, 1)
			path := filepath.Join(dir, "shard-000000.index")
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			body := data[:len(data)-4]
			tc.craft(t, dir, body)
			le.PutUint32(data[len(body):], crc32.ChecksumIEEE(body))
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}

			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			s, err := Open(dir)
			if err == nil {
				_, err = ReadAll(s, AccessFields)
				if !errors.Is(err, ErrCorrupt) {
					t.Errorf("opened, then read err = %v, want ErrCorrupt", err)
				}
			} else if !errors.Is(err, ErrBadStore) {
				t.Errorf("Open err = %v, want ErrBadStore", err)
			}
			runtime.ReadMemStats(&after)
			if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
				t.Errorf("rejecting the store allocated %d bytes, want under 1 MiB", got)
			}
		})
	}
}

// rewriteManifest applies edit to a store's manifest on disk.
func rewriteManifest(t *testing.T, dir string, edit func(*Manifest)) {
	t.Helper()
	path := filepath.Join(dir, ManifestName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	edit(&m)
	if data, err = json.Marshal(m); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func flipByte(t *testing.T, path string, off int64) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var b [1]byte
	if _, err := f.ReadAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xff
	if _, err := f.WriteAt(b[:], off); err != nil {
		t.Fatal(err)
	}
}

func truncateFile(t *testing.T, path string, drop int64) {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-drop); err != nil {
		t.Fatal(err)
	}
}

func replaceOnce(t *testing.T, data []byte, from, to string) []byte {
	t.Helper()
	s := string(data)
	if !strings.Contains(s, from) {
		t.Fatalf("%q not found in manifest", from)
	}
	return []byte(strings.Replace(s, from, to, 1))
}

func TestReplayerMatchesRecords(t *testing.T) {
	recs := genRecords(21, 2500, false)
	s, _ := mustWrite(t, recs, Meta{Name: "replay", BlockRecords: 300}, 3)
	p, err := s.Replayer()
	if err != nil {
		t.Fatal(err)
	}
	for i, rec := range recs {
		a, ok := p.Next()
		if !ok {
			t.Fatalf("replay ended at %d of %d", i, len(recs))
		}
		if a != rec.Access {
			t.Fatalf("access %d: got %+v, want %+v", i, a, rec.Access)
		}
	}
	if _, ok := p.Next(); ok {
		t.Fatal("replay overran the recorded stream")
	}
	if p.Err() != nil {
		t.Fatalf("Err() = %v", p.Err())
	}
}
