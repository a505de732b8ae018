package tracestore

import (
	"bytes"
	"compress/flate"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"

	"smores/internal/gpu"
)

// Record is one trace row: an access plus an optional exact-data
// payload (PayloadBytes long) for stores created with Meta.Payload.
type Record struct {
	gpu.Access
	Payload []byte
}

// Meta describes a store at creation time; most fields land in the
// manifest and drive the fleet-member profile a store registers as.
type Meta struct {
	// Name is the workload name the store replays as (required).
	Name string
	// Suite labels the fleet grouping (defaults to "trace").
	Suite string
	// Source records provenance ("recorded", "smtr", "csv", "binary").
	Source string
	// Seed is the generator seed the trace was recorded at (informational
	// — replay is deterministic regardless).
	Seed uint64
	// MSHRs bounds outstanding reads when the store runs as a fleet
	// member (0 selects 48, the sparse-app default).
	MSHRs int
	// Payload enables the exact-data `.payload` column; every appended
	// record must then carry exactly PayloadBytes bytes.
	Payload bool
	// BlockRecords is the records-per-block target (0 selects
	// DefaultBlockRecords; at most MaxBlockRecords).
	BlockRecords int
}

// ShardInfo is one shard's manifest row.
type ShardInfo struct {
	Name    string `json:"name"`
	Records int64  `json:"records"`
}

// Manifest is the store's directory-level metadata (manifest.json).
// Shards list in stream order: a reader concatenates them to reproduce
// the recorded access stream exactly.
type Manifest struct {
	Version      int         `json:"version"`
	Name         string      `json:"name"`
	Suite        string      `json:"suite"`
	Source       string      `json:"source,omitempty"`
	Seed         uint64      `json:"seed"`
	MSHRs        int         `json:"mshrs"`
	Payload      bool        `json:"payload,omitempty"`
	BlockRecords int         `json:"block_records"`
	Records      int64       `json:"records"`
	Writes       int64       `json:"writes"`
	SumThink     int64       `json:"sum_think"`
	MaxSector    uint64      `json:"max_sector"`
	Shards       []ShardInfo `json:"shards"`
}

// Writer builds a store: it hands out ordered shard writers (safe to
// drive from concurrent goroutines — shards share no state) and
// finalizes the manifest once every shard is closed.
type Writer struct {
	dir  string
	meta Meta

	mu        sync.Mutex
	shards    []*ShardWriter
	finalized bool
}

// Create initializes a store directory (created if missing; an existing
// manifest is refused rather than overwritten).
func Create(dir string, meta Meta) (*Writer, error) {
	if meta.Name == "" {
		return nil, fmt.Errorf("tracestore: store needs a workload name")
	}
	if meta.Suite == "" {
		meta.Suite = "trace"
	}
	if meta.MSHRs <= 0 {
		meta.MSHRs = 48
	}
	if meta.BlockRecords <= 0 {
		meta.BlockRecords = DefaultBlockRecords
	}
	if meta.BlockRecords > MaxBlockRecords {
		return nil, fmt.Errorf("tracestore: %d records per block exceeds the %d cap", meta.BlockRecords, MaxBlockRecords)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("tracestore: %w", err)
	}
	if _, err := os.Stat(filepath.Join(dir, ManifestName)); err == nil {
		return nil, fmt.Errorf("tracestore: %s already holds a store", dir)
	}
	return &Writer{dir: dir, meta: meta}, nil
}

// NewShard opens the next shard in stream order. The returned writer is
// owned by one goroutine; different shards may be written concurrently.
func (w *Writer) NewShard() (*ShardWriter, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.finalized {
		return nil, fmt.Errorf("tracestore: store %s already finalized", w.dir)
	}
	name := fmt.Sprintf("shard-%06d", len(w.shards))
	sw := &ShardWriter{
		dir:          w.dir,
		name:         name,
		payload:      w.meta.Payload,
		blockRecords: w.meta.BlockRecords,
	}
	for f := FieldThink; f < numFields; f++ {
		if f == FieldPayload && !w.meta.Payload {
			continue
		}
		file, err := os.Create(filepath.Join(w.dir, name+"."+f.String()))
		if err != nil {
			sw.closeFiles()
			return nil, fmt.Errorf("tracestore: shard %s: %w", name, err)
		}
		sw.files[f] = file
	}
	w.shards = append(w.shards, sw)
	return sw, nil
}

// Finalize writes the manifest once every shard is closed, and returns
// it. On any error the zero Manifest is returned.
func (w *Writer) Finalize() (Manifest, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.finalized {
		return Manifest{}, fmt.Errorf("tracestore: store %s already finalized", w.dir)
	}
	m := Manifest{
		Version:      Version,
		Name:         w.meta.Name,
		Suite:        w.meta.Suite,
		Source:       w.meta.Source,
		Seed:         w.meta.Seed,
		MSHRs:        w.meta.MSHRs,
		Payload:      w.meta.Payload,
		BlockRecords: w.meta.BlockRecords,
		Shards:       []ShardInfo{},
	}
	for _, sw := range w.shards {
		if !sw.closed {
			return Manifest{}, fmt.Errorf("tracestore: shard %s not closed before Finalize", sw.name)
		}
		if sw.err != nil {
			return Manifest{}, fmt.Errorf("tracestore: shard %s failed: %w", sw.name, sw.err)
		}
		m.Records += sw.records
		m.Writes += sw.writes
		m.SumThink += sw.sumThink
		if sw.records > 0 && sw.maxSector > m.MaxSector {
			m.MaxSector = sw.maxSector
		}
		m.Shards = append(m.Shards, ShardInfo{Name: sw.name, Records: sw.records})
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return Manifest{}, fmt.Errorf("tracestore: manifest: %w", err)
	}
	if err := os.WriteFile(filepath.Join(w.dir, ManifestName), append(data, '\n'), 0o644); err != nil {
		return Manifest{}, fmt.Errorf("tracestore: manifest: %w", err)
	}
	w.finalized = true
	return m, nil
}

// ShardWriter streams records into one shard's column files, flushing a
// compressed block every blockRecords records and the index footer on
// Close. Not safe for concurrent use; distinct shards are independent.
type ShardWriter struct {
	dir, name    string
	payload      bool
	blockRecords int

	files   [numFields]*os.File
	offsets [numFields]int64

	// pending block
	thinks   []int64
	sectors  []uint64
	writeFl  []bool
	payloads []byte

	blocks    []blockIndex
	records   int64
	writes    int64
	sumThink  int64
	maxSector uint64

	closed bool
	err    error
}

// Name returns the shard's name within the store.
func (sw *ShardWriter) Name() string { return sw.name }

// Records returns the records appended so far.
func (sw *ShardWriter) Records() int64 { return sw.records }

// Append adds one record to the shard.
func (sw *ShardWriter) Append(rec Record) error {
	if sw.err != nil {
		return sw.err
	}
	if sw.closed {
		return sw.fail(fmt.Errorf("append after close"))
	}
	if rec.Think < 0 {
		return sw.fail(fmt.Errorf("negative think time %d", rec.Think))
	}
	if sw.payload {
		if len(rec.Payload) != PayloadBytes {
			return sw.fail(fmt.Errorf("payload is %d bytes, want %d", len(rec.Payload), PayloadBytes))
		}
	} else if rec.Payload != nil {
		return sw.fail(fmt.Errorf("payload on a store created without the payload column"))
	}
	sw.thinks = append(sw.thinks, rec.Think)
	sw.sectors = append(sw.sectors, rec.Sector)
	sw.writeFl = append(sw.writeFl, rec.Write)
	if sw.payload {
		sw.payloads = append(sw.payloads, rec.Payload...)
	}
	sw.records++
	sw.sumThink += rec.Think
	if rec.Write {
		sw.writes++
	}
	if rec.Sector > sw.maxSector {
		sw.maxSector = rec.Sector
	}
	if len(sw.thinks) >= sw.blockRecords {
		return sw.flushBlock()
	}
	return nil
}

// AppendAccess adds a payload-less record.
func (sw *ShardWriter) AppendAccess(a gpu.Access) error {
	return sw.Append(Record{Access: a})
}

// Close flushes the final partial block, writes the index footer, and
// closes the column files.
func (sw *ShardWriter) Close() error {
	if sw.closed {
		return sw.err
	}
	if sw.err == nil && len(sw.thinks) > 0 {
		sw.err = sw.flushBlock()
	}
	if sw.err == nil {
		si := &shardIndex{
			Name:         sw.name,
			Payload:      sw.payload,
			BlockRecords: sw.blockRecords,
			Records:      sw.records,
			Blocks:       sw.blocks,
		}
		if err := os.WriteFile(filepath.Join(sw.dir, sw.name+".index"), marshalIndex(si), 0o644); err != nil {
			sw.err = fmt.Errorf("tracestore: shard %s index: %w", sw.name, err)
		}
	}
	sw.closeFiles()
	sw.closed = true
	return sw.err
}

// fail records the shard's first error.
func (sw *ShardWriter) fail(err error) error {
	wrapped := fmt.Errorf("tracestore: shard %s: %w", sw.name, err)
	if sw.err == nil {
		sw.err = wrapped
	}
	return wrapped
}

// closeFiles closes every open column file, keeping the first error.
func (sw *ShardWriter) closeFiles() {
	for f, file := range sw.files {
		if file == nil {
			continue
		}
		if err := file.Close(); err != nil && sw.err == nil {
			sw.err = fmt.Errorf("tracestore: shard %s %s column: %w", sw.name, Field(f), err)
		}
		sw.files[f] = nil
	}
}

// flushBlock compresses and writes the pending records as one block in
// every column file, then records the block's index entry.
func (sw *ShardWriter) flushBlock() error {
	n := len(sw.thinks)
	blk := blockIndex{Records: n, MinSector: sw.sectors[0], MaxSector: sw.sectors[0]}
	for _, s := range sw.sectors {
		if s < blk.MinSector {
			blk.MinSector = s
		}
		if s > blk.MaxSector {
			blk.MaxSector = s
		}
	}
	write := func(f Field, raw []byte) error {
		comp, err := deflate(raw)
		if err != nil {
			return sw.fail(fmt.Errorf("%s column: %w", f, err))
		}
		if _, err := sw.files[f].Write(comp); err != nil {
			return sw.fail(fmt.Errorf("%s column: %w", f, err))
		}
		blk.Cols[f] = colLoc{
			Offset:  sw.offsets[f],
			CompLen: uint32(len(comp)),
			RawLen:  uint32(len(raw)),
			CRC:     crc32.ChecksumIEEE(comp),
		}
		sw.offsets[f] += int64(len(comp))
		return nil
	}
	if err := write(FieldThink, encodeThinks(nil, sw.thinks)); err != nil {
		return err
	}
	if err := write(FieldSector, encodeSectors(nil, sw.sectors)); err != nil {
		return err
	}
	if err := write(FieldFlags, encodeFlags(nil, sw.writeFl)); err != nil {
		return err
	}
	if sw.payload {
		if err := write(FieldPayload, sw.payloads); err != nil {
			return err
		}
	}
	sw.blocks = append(sw.blocks, blk)
	sw.thinks = sw.thinks[:0]
	sw.sectors = sw.sectors[:0]
	sw.writeFl = sw.writeFl[:0]
	sw.payloads = sw.payloads[:0]
	return nil
}

// deflaters pools flate compressors at DefaultCompression across shard
// writers, so a column block costs its output buffer and not a fresh
// compressor's ~800 KB of hash chains and window, and no idle shard
// writer holds one. Reset makes a pooled compressor equivalent to a
// fresh NewWriter at the same level, so the stored bytes do not depend
// on which compressor, or which goroutine, wrote a block.
var deflaters sync.Pool

// deflate compresses raw with stdlib flate at the default level. A
// compressor whose Write or Close failed is dropped, not pooled.
func deflate(raw []byte) ([]byte, error) {
	var buf bytes.Buffer
	zw, ok := deflaters.Get().(*flate.Writer)
	if ok {
		zw.Reset(&buf)
	} else {
		var err error
		if zw, err = flate.NewWriter(&buf, flate.DefaultCompression); err != nil {
			return nil, err
		}
	}
	if _, err := zw.Write(raw); err != nil {
		return nil, err
	}
	if err := zw.Close(); err != nil {
		return nil, err
	}
	deflaters.Put(zw)
	return buf.Bytes(), nil
}

// WriteRecords builds a store from an in-memory record slice, splitting
// the stream into shards contiguous segments written in parallel (one
// goroutine per shard). Segment order is preserved, so replay is
// byte-identical to iterating recs.
func WriteRecords(dir string, meta Meta, recs []Record, shards int) (Manifest, error) {
	if shards < 1 {
		shards = 1
	}
	if shards > len(recs) && len(recs) > 0 {
		shards = len(recs)
	}
	if len(recs) == 0 {
		shards = 1
	}
	w, err := Create(dir, meta)
	if err != nil {
		return Manifest{}, err
	}
	// Open every shard up front (NewShard names them in stream order),
	// then let each goroutine own one writer.
	writers := make([]*ShardWriter, shards)
	for i := range writers {
		if writers[i], err = w.NewShard(); err != nil {
			for _, sw := range writers[:i] {
				sw.Close()
			}
			return Manifest{}, err
		}
	}
	per := len(recs) / shards
	rem := len(recs) % shards
	errs := make([]error, shards)
	var wg sync.WaitGroup
	start := 0
	for i := 0; i < shards; i++ {
		n := per
		if i < rem {
			n++
		}
		seg := recs[start : start+n]
		start += n
		wg.Add(1)
		go func(i int, sw *ShardWriter, seg []Record) {
			defer wg.Done()
			for _, rec := range seg {
				if err := sw.Append(rec); err != nil {
					break // Close reports the shard's first error
				}
			}
			errs[i] = sw.Close()
		}(i, writers[i], seg)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return Manifest{}, err
		}
	}
	return w.Finalize()
}
