package tracestore

import (
	"bytes"
	"compress/flate"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"smores/internal/gpu"
)

// Store is an opened trace store: the manifest plus every shard's
// parsed index. A Store is read-only and safe for concurrent readers —
// each Reader opens its own column file handles.
type Store struct {
	// Dir is the store directory.
	Dir string
	// Manifest is the store's metadata.
	Manifest Manifest

	shards []*shardIndex
}

// Open loads a store directory: the manifest and each shard's index
// footer. Column files are only opened (and only for the requested
// fields) when a Reader starts scanning.
func Open(dir string) (*Store, error) {
	data, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadStore, err)
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("%w: manifest: %v", ErrBadStore, err)
	}
	if m.Version != Version {
		return nil, fmt.Errorf("%w: manifest version %d, this build expects %d", ErrBadStore, m.Version, Version)
	}
	if m.Name == "" {
		return nil, fmt.Errorf("%w: manifest has no workload name", ErrBadStore)
	}
	s := &Store{Dir: dir, Manifest: m}
	var total int64
	for _, info := range m.Shards {
		si, err := loadIndex(filepath.Join(dir, info.Name+".index"), info.Name)
		if err != nil {
			return nil, err
		}
		if si.Records != info.Records {
			return nil, fmt.Errorf("%w: shard %s index holds %d records, manifest claims %d",
				ErrBadStore, info.Name, si.Records, info.Records)
		}
		if si.Payload != m.Payload {
			return nil, fmt.Errorf("%w: shard %s payload flag disagrees with manifest", ErrBadStore, info.Name)
		}
		total += si.Records
		s.shards = append(s.shards, si)
	}
	if total != m.Records {
		return nil, fmt.Errorf("%w: shards hold %d records, manifest claims %d", ErrBadStore, total, m.Records)
	}
	return s, nil
}

// Records returns the store's total record count.
func (s *Store) Records() int64 { return s.Manifest.Records }

// ReadOptions selects what a Reader decodes.
type ReadOptions struct {
	// Fields is the column subset to decode (zero selects AccessFields).
	// Unrequested columns are never opened, let alone read.
	Fields FieldSet
	// FilterSector restricts the scan to records whose sector lies in
	// [MinSector, MaxSector]. Blocks whose index range does not intersect
	// are skipped without reading any column bytes. Requires SetSector.
	FilterSector         bool
	MinSector, MaxSector uint64
}

// Reader scans a store's records in stream order, decoding only the
// requested columns. It is not safe for concurrent use; open one Reader
// per goroutine.
type Reader struct {
	s      *Store
	fields FieldSet
	opts   ReadOptions

	si    int
	files [numFields]*os.File
	sizes [numFields]int64 // byte length of each open column file
	bi    int

	thinks   []int64
	sectors  []uint64
	writeFl  []bool
	payloads []byte
	n, pos   int

	bytesRead  [numFields]int64
	blocksRead int64
	blocksSkip int64
	err        error
}

// NewReader starts a scan.
func (s *Store) NewReader(opts ReadOptions) (*Reader, error) {
	if opts.Fields == 0 {
		opts.Fields = AccessFields
	}
	if opts.Fields.Has(FieldPayload) && !s.Manifest.Payload {
		return nil, fmt.Errorf("tracestore: store %s has no payload column", s.Dir)
	}
	if opts.FilterSector {
		if !opts.Fields.Has(FieldSector) {
			return nil, fmt.Errorf("tracestore: sector filter requires the sector field")
		}
		if opts.MinSector > opts.MaxSector {
			return nil, fmt.Errorf("tracestore: sector filter range [%d,%d] is empty", opts.MinSector, opts.MaxSector)
		}
	}
	return &Reader{s: s, fields: opts.Fields, opts: opts}, nil
}

// BytesRead returns the compressed column bytes read so far for f —
// the instrumentation behind the "skipped fields cost nothing" gate.
func (r *Reader) BytesRead(f Field) int64 { return r.bytesRead[f] }

// BlocksRead and BlocksSkipped count block-level scan effort.
func (r *Reader) BlocksRead() int64    { return r.blocksRead }
func (r *Reader) BlocksSkipped() int64 { return r.blocksSkip }

// Close releases the reader's file handles. Safe to call at any point;
// the reader also closes shard files as it crosses shard boundaries.
func (r *Reader) Close() error {
	var first error
	for f, file := range r.files {
		if file == nil {
			continue
		}
		if err := file.Close(); err != nil && first == nil {
			first = fmt.Errorf("tracestore: closing %s column: %w", Field(f), err)
		}
		r.files[f] = nil
	}
	return first
}

// Next returns the next record (with only the requested fields
// populated), or io.EOF at the end of the store.
func (r *Reader) Next() (Record, error) {
	if r.err != nil {
		return Record{}, r.err
	}
	for {
		for r.pos < r.n {
			i := r.pos
			r.pos++
			if r.opts.FilterSector {
				if sec := r.sectors[i]; sec < r.opts.MinSector || sec > r.opts.MaxSector {
					continue
				}
			}
			var rec Record
			if r.fields.Has(FieldThink) {
				rec.Think = r.thinks[i]
			}
			if r.fields.Has(FieldSector) {
				rec.Sector = r.sectors[i]
			}
			if r.fields.Has(FieldFlags) {
				rec.Write = r.writeFl[i]
			}
			if r.fields.Has(FieldPayload) {
				rec.Payload = r.payloads[i*PayloadBytes : (i+1)*PayloadBytes : (i+1)*PayloadBytes]
			}
			return rec, nil
		}
		if err := r.nextBlock(); err != nil {
			r.err = err
			return Record{}, err
		}
	}
}

// nextBlock advances to the next block whose index range survives the
// sector filter, crossing shard boundaries as needed.
func (r *Reader) nextBlock() error {
	for {
		if r.si >= len(r.s.shards) {
			if err := r.Close(); err != nil {
				return err
			}
			return io.EOF
		}
		si := r.s.shards[r.si]
		if r.bi >= len(si.Blocks) {
			if err := r.Close(); err != nil {
				return err
			}
			r.si++
			r.bi = 0
			continue
		}
		blk := si.Blocks[r.bi]
		r.bi++
		if r.opts.FilterSector && (blk.MaxSector < r.opts.MinSector || blk.MinSector > r.opts.MaxSector) {
			r.blocksSkip++
			continue
		}
		if err := r.loadBlock(si, blk); err != nil {
			return err
		}
		r.blocksRead++
		return nil
	}
}

// loadBlock reads, checks, and decodes the requested columns of blk.
func (r *Reader) loadBlock(si *shardIndex, blk blockIndex) error {
	n := blk.Records
	decode := func(f Field) ([]byte, error) {
		raw, err := r.readColumn(si, f, blk.Cols[f])
		if err != nil {
			return nil, err
		}
		return raw, nil
	}
	fail := func(f Field, err error) error {
		return fmt.Errorf("%w: shard %s block %d: %s", ErrCorrupt, si.Name, r.bi-1, err)
	}
	if r.fields.Has(FieldThink) {
		raw, err := decode(FieldThink)
		if err != nil {
			return fail(FieldThink, err)
		}
		if r.thinks, err = decodeThinks(raw, n); err != nil {
			return fail(FieldThink, err)
		}
	}
	if r.fields.Has(FieldSector) {
		raw, err := decode(FieldSector)
		if err != nil {
			return fail(FieldSector, err)
		}
		if r.sectors, err = decodeSectors(raw, n); err != nil {
			return fail(FieldSector, err)
		}
	}
	if r.fields.Has(FieldFlags) {
		raw, err := decode(FieldFlags)
		if err != nil {
			return fail(FieldFlags, err)
		}
		if r.writeFl, err = decodeFlags(raw, n); err != nil {
			return fail(FieldFlags, err)
		}
	}
	if r.fields.Has(FieldPayload) {
		raw, err := decode(FieldPayload)
		if err != nil {
			return fail(FieldPayload, err)
		}
		if r.payloads, err = decodePayloads(raw, n); err != nil {
			return fail(FieldPayload, err)
		}
	}
	r.n, r.pos = n, 0
	return nil
}

// readColumn reads one column block's compressed bytes (opening the
// column file lazily), verifies the CRC, and inflates it. A block that
// the index places past the end of its file is rejected before any
// buffer is sized from the index.
func (r *Reader) readColumn(si *shardIndex, f Field, loc colLoc) ([]byte, error) {
	file := r.files[f]
	if file == nil {
		var err error
		file, err = os.Open(filepath.Join(r.s.Dir, si.Name+"."+f.String()))
		if err != nil {
			return nil, fmt.Errorf("%s column: %w", f, err)
		}
		// Seek reports the size without Stat's per-call allocation;
		// reads below use ReadAt, so the offset it leaves is unused.
		size, err := file.Seek(0, io.SeekEnd)
		if err != nil {
			file.Close()
			return nil, fmt.Errorf("%s column: %w", f, err)
		}
		r.files[f], r.sizes[f] = file, size
	}
	if loc.Offset < 0 || loc.Offset > r.sizes[f]-int64(loc.CompLen) {
		return nil, fmt.Errorf("%s column: block [%d, +%d) runs past the %d-byte file",
			f, loc.Offset, loc.CompLen, r.sizes[f])
	}
	comp := make([]byte, loc.CompLen)
	if _, err := file.ReadAt(comp, loc.Offset); err != nil {
		return nil, fmt.Errorf("%s column: %w", f, err)
	}
	r.bytesRead[f] += int64(len(comp))
	if got := crc32.ChecksumIEEE(comp); got != loc.CRC {
		return nil, fmt.Errorf("%s column: checksum %08x, want %08x", f, got, loc.CRC)
	}
	raw, err := inflate(comp, int(loc.RawLen))
	if err != nil {
		return nil, fmt.Errorf("%s column: %w", f, err)
	}
	return raw, nil
}

// inflate decompresses a flate block expecting exactly want raw bytes.
func inflate(comp []byte, want int) ([]byte, error) {
	zr := flate.NewReader(bytes.NewReader(comp))
	defer zr.Close()
	raw, err := readFull(zr, want)
	if err != nil {
		return nil, fmt.Errorf("inflate: %w", err)
	}
	return raw, nil
}

// Replayer adapts a Reader to gpu.Generator: the store replays as a
// workload whose stream is byte-identical to the recorded one.
type Replayer struct {
	r   *Reader
	err error
}

// Replayer starts a full access-field scan as a generator.
func (s *Store) Replayer() (*Replayer, error) {
	r, err := s.NewReader(ReadOptions{Fields: AccessFields})
	if err != nil {
		return nil, err
	}
	return &Replayer{r: r}, nil
}

// Next implements gpu.Generator.
func (p *Replayer) Next() (gpu.Access, bool) {
	if p.err != nil {
		return gpu.Access{}, false
	}
	rec, err := p.r.Next()
	if errors.Is(err, io.EOF) {
		return gpu.Access{}, false
	}
	if err != nil {
		p.err = err
		return gpu.Access{}, false
	}
	return rec.Access, true
}

// Err returns the first replay error (nil at a clean end of store).
func (p *Replayer) Err() error { return p.err }

// ReadAll drains a store's records (intended for tools and tests).
func ReadAll(s *Store, fields FieldSet) ([]Record, error) {
	r, err := s.NewReader(ReadOptions{Fields: fields})
	if err != nil {
		return nil, err
	}
	defer r.Close()
	var out []Record
	for {
		rec, err := r.Next()
		if errors.Is(err, io.EOF) {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, rec)
	}
}
