package tracestore

import (
	"bytes"
	"compress/flate"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"

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
	seen := make(map[string]bool, len(m.Shards))
	for _, info := range m.Shards {
		if !validShardName(info.Name) {
			return nil, fmt.Errorf("%w: manifest shard name %q is not a file name inside the store", ErrBadStore, info.Name)
		}
		if seen[info.Name] {
			return nil, fmt.Errorf("%w: manifest lists shard %s twice", ErrBadStore, info.Name)
		}
		seen[info.Name] = true
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

// validShardName reports whether a manifest shard name is a plain file
// name prefix inside the store directory. Writers only produce
// shard-%06d: a name with a path separator could reach outside the
// store, and an empty or dot name is no writer's.
func validShardName(name string) bool {
	return name != "" && name != "." && name != ".." && !strings.ContainsAny(name, `/\`)
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

	// cols holds the decode columns while the scan runs: taken from
	// the pool at the first block read and given back when the scan
	// ends or the reader closes (nil before and after). payloads is
	// fresh per block, because Record.Payload aliases it.
	cols     *columns
	payloads []byte
	n, pos   int

	bytesRead  [numFields]int64
	blocksRead int64
	blocksSkip int64
	err        error
}

// columns is one reader's decode storage: the current block's think,
// sector and flag columns, decoded into again by every block that fits
// them, and one column block's compressed and inflated bytes, reused
// across columns and blocks (a payload block inflates into its own
// buffer).
type columns struct {
	thinks    []int64
	sectors   []uint64
	writeFl   []bool
	comp, raw []byte
}

// decodeColumns pools readers' decode columns, the twin of inflaters:
// a scan costs no fresh 32 KB think and sector columns when an earlier
// scan, on any store, has finished with its own, and no finished or
// closed reader holds any.
var decodeColumns sync.Pool

// takeColumns returns the reader's decode columns, taking them from the
// pool (or building empty ones) at the first call of a scan.
func (r *Reader) takeColumns() *columns {
	if r.cols == nil {
		var ok bool
		if r.cols, ok = decodeColumns.Get().(*columns); !ok {
			r.cols = new(columns)
		}
	}
	return r.cols
}

// releaseColumns gives the decode columns back to the pool; the reader
// holds no decoded block afterwards.
func (r *Reader) releaseColumns() {
	if r.cols != nil {
		decodeColumns.Put(r.cols)
		r.cols = nil
	}
	r.payloads, r.n, r.pos = nil, 0, 0
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

// errClosed is the error Next returns once the reader is closed.
var errClosed = fmt.Errorf("tracestore: Next on a closed reader: %w", fs.ErrClosed)

// Close ends the scan: it closes the reader's column files and gives
// its decode columns back to the pool. Safe to call at any point and
// more than once; Next then fails (with fs.ErrClosed) unless the scan
// had already ended, in which case it keeps returning that end.
func (r *Reader) Close() error {
	r.releaseColumns()
	if r.err == nil {
		r.err = errClosed
	}
	return r.closeFiles()
}

// closeFiles closes the open column files, as the reader does whenever
// it crosses a shard boundary.
func (r *Reader) closeFiles() error {
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
				if sec := r.cols.sectors[i]; sec < r.opts.MinSector || sec > r.opts.MaxSector {
					continue
				}
			}
			var rec Record
			if r.fields.Has(FieldThink) {
				rec.Think = r.cols.thinks[i]
			}
			if r.fields.Has(FieldSector) {
				rec.Sector = r.cols.sectors[i]
			}
			if r.fields.Has(FieldFlags) {
				rec.Write = r.cols.writeFl[i]
			}
			if r.fields.Has(FieldPayload) {
				rec.Payload = r.payloads[i*PayloadBytes : (i+1)*PayloadBytes : (i+1)*PayloadBytes]
			}
			return rec, nil
		}
		if err := r.nextBlock(); err != nil {
			// The scan is over, at the end of the store or on an error: a
			// reader kept past its end holds no decode columns.
			r.err = err
			r.releaseColumns()
			return Record{}, err
		}
	}
}

// nextBlock advances to the next block whose index range survives the
// sector filter, crossing shard boundaries as needed.
func (r *Reader) nextBlock() error {
	for {
		if r.si >= len(r.s.shards) {
			if err := r.closeFiles(); err != nil {
				return err
			}
			return io.EOF
		}
		si := r.s.shards[r.si]
		if r.bi >= len(si.Blocks) {
			if err := r.closeFiles(); err != nil {
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
	fail := func(err error) error {
		return fmt.Errorf("%w: shard %s block %d: %s", ErrCorrupt, si.Name, r.bi-1, err)
	}
	c := r.takeColumns()
	var err error
	if r.fields.Has(FieldThink) {
		if c.raw, err = r.readColumn(si, FieldThink, blk.Cols[FieldThink], c.raw); err != nil {
			return fail(err)
		}
		if c.thinks, err = decodeThinks(c.thinks, c.raw, n); err != nil {
			return fail(err)
		}
	}
	if r.fields.Has(FieldSector) {
		if c.raw, err = r.readColumn(si, FieldSector, blk.Cols[FieldSector], c.raw); err != nil {
			return fail(err)
		}
		if c.sectors, err = decodeSectors(c.sectors, c.raw, n); err != nil {
			return fail(err)
		}
	}
	if r.fields.Has(FieldFlags) {
		if c.raw, err = r.readColumn(si, FieldFlags, blk.Cols[FieldFlags], c.raw); err != nil {
			return fail(err)
		}
		if c.writeFl, err = decodeFlags(c.writeFl, c.raw, n); err != nil {
			return fail(err)
		}
	}
	if r.fields.Has(FieldPayload) {
		raw, err := r.readColumn(si, FieldPayload, blk.Cols[FieldPayload], nil)
		if err != nil {
			return fail(err)
		}
		if r.payloads, err = decodePayloads(raw, n); err != nil {
			return fail(err)
		}
	}
	r.n, r.pos = n, 0
	return nil
}

// readColumn reads one column block's compressed bytes (opening the
// column file lazily), verifies the CRC, and inflates it into dst when
// dst can hold the block, else into a fresh buffer. A block that the
// index places past the end of its file is rejected before any buffer
// is sized from the index.
func (r *Reader) readColumn(si *shardIndex, f Field, loc colLoc, dst []byte) ([]byte, error) {
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
	c := r.takeColumns()
	c.comp = resize(c.comp, int(loc.CompLen))
	comp := c.comp
	if _, err := file.ReadAt(comp, loc.Offset); err != nil {
		return nil, fmt.Errorf("%s column: %w", f, err)
	}
	r.bytesRead[f] += int64(len(comp))
	if got := crc32.ChecksumIEEE(comp); got != loc.CRC {
		return nil, fmt.Errorf("%s column: checksum %08x, want %08x", f, got, loc.CRC)
	}
	raw, err := inflate(dst, comp, int(loc.RawLen))
	if err != nil {
		return nil, fmt.Errorf("%s column: %w", f, err)
	}
	return raw, nil
}

// inflater is a pooled flate decompressor with the byte reader it
// reads a block from, so a block costs neither.
type inflater struct {
	src bytes.Reader
	zr  io.ReadCloser
}

// inflaters pools inflaters across readers, so a block costs its
// buffers and not a fresh decompressor's ~40 KB of tables and window,
// and no idle reader holds one.
var inflaters sync.Pool

// inflate decompresses a flate block expecting exactly want raw bytes,
// into dst when it can hold them.
func inflate(dst, comp []byte, want int) ([]byte, error) {
	in, ok := inflaters.Get().(*inflater)
	if !ok {
		in = new(inflater)
		in.zr = flate.NewReader(&in.src)
	}
	in.src.Reset(comp)
	if err := in.zr.(flate.Resetter).Reset(&in.src, nil); err != nil {
		return nil, fmt.Errorf("inflate: %w", err)
	}
	raw, err := readFull(in.zr, dst, want)
	in.src.Reset(nil) // a pooled inflater keeps no block reachable
	inflaters.Put(in)
	if err != nil {
		return nil, fmt.Errorf("inflate: %w", err)
	}
	return raw, nil
}

// Replayer adapts a Reader to gpu.Generator: the store replays as a
// workload whose stream is byte-identical to the recorded one. It is an
// io.Closer: a replay that stops before the end of the store (at an
// access budget) keeps a shard's column files open and its decode
// columns out of the pool until Close.
type Replayer struct {
	r   *Reader // nil once closed
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

// Next implements gpu.Generator. It returns false at the end of the
// store, on a replay error and once the replay is closed.
func (p *Replayer) Next() (gpu.Access, bool) {
	if p.err != nil || p.r == nil {
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

// Err returns the first replay error (nil at a clean end of store),
// also after Close.
func (p *Replayer) Err() error { return p.err }

// Close ends the replay: it closes the reader's files and gives its
// decode columns back to the pool. Next then returns false; Err keeps
// the replay's error, which Close does not change. Closing twice is a
// no-op.
func (p *Replayer) Close() error {
	if p.r == nil {
		return nil
	}
	err := p.r.Close()
	p.r = nil
	return err
}

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
