package tracestore

import (
	"bufio"
	"encoding/binary"
	"encoding/csv"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"smores/internal/gpu"
)

// ImportOptions tunes the CSV/binary memory-trace importers.
type ImportOptions struct {
	// SectorBytes divides byte addresses down to 32-byte sector indexes
	// (0 selects PayloadBytes, i.e. 32; negative is an error). Ignored
	// for columns that already hold sector indexes.
	SectorBytes int
	// AddrCol, ThinkCol, OpCol, PayloadCol override the header-based
	// column auto-mapping with explicit header names.
	AddrCol, ThinkCol, OpCol, PayloadCol string
}

// sectorBytes resolves SectorBytes for both importers: 0 selects
// PayloadBytes, and a negative width is refused instead of wrapping to
// 2^64-1 and mapping every address to sector 0.
func (o ImportOptions) sectorBytes() (uint64, error) {
	switch {
	case o.SectorBytes < 0:
		return 0, fmt.Errorf("tracestore: negative sector width %d", o.SectorBytes)
	case o.SectorBytes == 0:
		return PayloadBytes, nil
	}
	return uint64(o.SectorBytes), nil
}

// writeStore is the write sequence every importer shares: create the
// store at dir, stream next's records into its single shard, close the
// shard, and write the manifest. next returns io.EOF at the end of its
// input; any other error aborts the import.
func writeStore(dir string, meta Meta, next func() (Record, error)) (Manifest, error) {
	w, err := Create(dir, meta)
	if err != nil {
		return Manifest{}, err
	}
	sw, err := w.NewShard()
	if err != nil {
		return Manifest{}, err
	}
	for {
		rec, err := next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err == nil {
			err = sw.Append(rec)
		}
		if err != nil {
			sw.Close()
			return Manifest{}, err
		}
	}
	if err := sw.Close(); err != nil {
		return Manifest{}, err
	}
	return w.Finalize()
}

// Header names the auto-mapper recognizes. "sector" holds a sector
// index directly; the address names hold byte addresses and are divided
// by SectorBytes.
var (
	sectorHeaders  = []string{"sector"}
	addrHeaders    = []string{"addr", "address", "byte_addr", "pc_addr"}
	thinkHeaders   = []string{"think", "delta", "idle", "gap", "cycles"}
	opHeaders      = []string{"op", "rw", "kind", "type", "write"}
	payloadHeaders = []string{"payload", "data"}
)

// csvMapping resolves which CSV column feeds which store field.
type csvMapping struct {
	addr, think, op, payload int // -1 when absent
	addrIsSector             bool
	sectorBytes              uint64
}

// mapColumns builds the column mapping from a CSV header row.
func mapColumns(header []string, opts ImportOptions) (csvMapping, error) {
	m := csvMapping{addr: -1, think: -1, op: -1, payload: -1}
	var err error
	if m.sectorBytes, err = opts.sectorBytes(); err != nil {
		return m, err
	}
	find := func(names []string, explicit string) int {
		for i, h := range header {
			h = strings.ToLower(strings.TrimSpace(h))
			if explicit != "" {
				if h == strings.ToLower(explicit) {
					return i
				}
				continue
			}
			for _, name := range names {
				if h == name {
					return i
				}
			}
		}
		return -1
	}
	if opts.AddrCol == "" {
		if i := find(sectorHeaders, ""); i >= 0 {
			m.addr, m.addrIsSector = i, true
		} else {
			m.addr = find(addrHeaders, "")
		}
	} else {
		m.addr = find(nil, opts.AddrCol)
		m.addrIsSector = strings.EqualFold(opts.AddrCol, "sector")
	}
	if m.addr < 0 {
		return m, fmt.Errorf("tracestore: csv: no address column (want one of sector/%s%s)",
			strings.Join(addrHeaders, "/"), explicitHint(opts.AddrCol))
	}
	m.think = find(thinkHeaders, opts.ThinkCol)
	if opts.ThinkCol != "" && m.think < 0 {
		return m, fmt.Errorf("tracestore: csv: think column %q not in header", opts.ThinkCol)
	}
	m.op = find(opHeaders, opts.OpCol)
	if opts.OpCol != "" && m.op < 0 {
		return m, fmt.Errorf("tracestore: csv: op column %q not in header", opts.OpCol)
	}
	m.payload = find(payloadHeaders, opts.PayloadCol)
	if opts.PayloadCol != "" && m.payload < 0 {
		return m, fmt.Errorf("tracestore: csv: payload column %q not in header", opts.PayloadCol)
	}
	return m, nil
}

func explicitHint(col string) string {
	if col == "" {
		return ""
	}
	return fmt.Sprintf(", explicit %q not found", col)
}

// parseOp interprets a read/write marker cell.
func parseOp(s string) (bool, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "w", "write", "st", "store", "1", "true":
		return true, nil
	case "r", "read", "ld", "load", "0", "false", "":
		return false, nil
	}
	return false, fmt.Errorf("op %s (want R/W, read/write, ld/st, 0/1)", quoteCell(s))
}

// parseUint parses a numeric cell with base auto-detection. Unlike
// strconv's, its error quotes only a short prefix of the cell.
func parseUint(cell string, bitSize int) (uint64, error) {
	v, err := strconv.ParseUint(strings.TrimSpace(cell), 0, bitSize)
	if err != nil {
		var ne *strconv.NumError
		if errors.As(err, &ne) {
			err = ne.Err
		}
		return 0, fmt.Errorf("%s: %w", quoteCell(cell), err)
	}
	return v, nil
}

// cellQuoteBytes bounds how much of an offending cell an error quotes.
const cellQuoteBytes = 32

// quoteCell quotes a cell for an error message, cut to its first
// cellQuoteBytes bytes.
func quoteCell(s string) string {
	if len(s) <= cellQuoteBytes {
		return strconv.Quote(s)
	}
	return strconv.Quote(s[:cellQuoteBytes]) + "..."
}

// MaxCSVRecordBytes caps the input one CSV record may span: its line
// break and any blank lines before it count. encoding/csv reads a
// record whole, so without the cap a single unterminated row or quoted
// field would be buffered, however long, before it failed.
const MaxCSVRecordBytes = 64 << 10

// ErrCSVRecordTooLong reports a CSV record spanning more than
// MaxCSVRecordBytes of input; the error names the row.
var ErrCSVRecordTooLong = errors.New("tracestore: csv record too long")

// capReader feeds a csv.Reader its input up to limit, which ImportCSV
// moves before every record, and fails with ErrCSVRecordTooLong past
// it.
type capReader struct {
	r          io.Reader
	off, limit int64
}

func (c *capReader) Read(p []byte) (int, error) {
	if c.off >= c.limit {
		return 0, ErrCSVRecordTooLong
	}
	if rest := c.limit - c.off; int64(len(p)) > rest {
		p = p[:rest]
	}
	n, err := c.r.Read(p)
	c.off += int64(n)
	return n, err
}

// ImportCSV converts a CSV memory trace into a store at dir. The first
// row must be a header; columns are auto-mapped by name (see
// docs/TRACES.md) or pinned via opts. An address column is required;
// think defaults to 0 and op to read when absent. A payload column
// (hex, PayloadBytes wide) is captured only when meta.Payload is set.
func ImportCSV(r io.Reader, dir string, meta Meta, opts ImportOptions) (Manifest, error) {
	in := &capReader{r: r}
	cr := csv.NewReader(in)
	cr.ReuseRecord = true
	cr.TrimLeadingSpace = true
	row := 1
	// read returns the next record. The csv.Reader may be handed one
	// byte past the cap, so that a record of exactly MaxCSVRecordBytes
	// still finds its end; a record that reaches that byte fails, even
	// when the csv.Reader reports a parse error for it first.
	read := func() ([]string, error) {
		start := cr.InputOffset()
		in.limit = start + MaxCSVRecordBytes + 1
		cells, err := cr.Read()
		if errors.Is(err, ErrCSVRecordTooLong) || cr.InputOffset()-start > MaxCSVRecordBytes {
			return nil, fmt.Errorf("%w: row %d spans more than %d bytes", ErrCSVRecordTooLong, row, MaxCSVRecordBytes)
		}
		return cells, err
	}
	header, err := read()
	switch {
	case errors.Is(err, io.EOF):
		return Manifest{}, fmt.Errorf("tracestore: csv: empty input (a header row is required)")
	case errors.Is(err, ErrCSVRecordTooLong):
		return Manifest{}, err
	case err != nil:
		return Manifest{}, fmt.Errorf("tracestore: csv: %w", err)
	}
	m, err := mapColumns(header, opts)
	if err != nil {
		return Manifest{}, err
	}
	if meta.Payload && m.payload < 0 {
		return Manifest{}, fmt.Errorf("tracestore: csv: payload capture requested but no payload column mapped")
	}
	if meta.Source == "" {
		meta.Source = "csv"
	}
	fail := func(err error) (Record, error) {
		return Record{}, fmt.Errorf("tracestore: csv row %d: %w", row, err)
	}
	return writeStore(dir, meta, func() (Record, error) {
		row++
		cells, err := read()
		if errors.Is(err, io.EOF) {
			return Record{}, io.EOF
		}
		if errors.Is(err, ErrCSVRecordTooLong) {
			return Record{}, err
		}
		if err != nil {
			return fail(err)
		}
		var rec Record
		addr, err := parseUint(cells[m.addr], 64)
		if err != nil {
			return fail(fmt.Errorf("address %w", err))
		}
		rec.Sector = addr
		if !m.addrIsSector {
			rec.Sector = addr / m.sectorBytes
		}
		if m.think >= 0 {
			think, err := parseUint(cells[m.think], 63)
			if err != nil {
				return fail(fmt.Errorf("think %w", err))
			}
			rec.Think = int64(think)
		}
		if m.op >= 0 {
			if rec.Write, err = parseOp(cells[m.op]); err != nil {
				return fail(err)
			}
		}
		if meta.Payload {
			payload, err := hex.DecodeString(strings.TrimSpace(cells[m.payload]))
			if err != nil {
				return fail(fmt.Errorf("payload: %w", err))
			}
			if len(payload) != PayloadBytes {
				return fail(fmt.Errorf("payload is %d bytes, want %d", len(payload), PayloadBytes))
			}
			rec.Payload = payload
		}
		return rec, nil
	})
}

// binaryRecordSize is the fixed record width of the binary import
// format: u64 byte address, u32 think clocks, u8 flags (bit0 = write),
// all little-endian.
const binaryRecordSize = 13

// ImportBinary converts a fixed-width binary memory trace (13-byte
// little-endian records: u64 byte address, u32 think, u8 flags with
// bit0 = write) into a store at dir. Addresses are divided by
// opts.SectorBytes (default 32).
func ImportBinary(r io.Reader, dir string, meta Meta, opts ImportOptions) (Manifest, error) {
	sectorBytes, err := opts.sectorBytes()
	if err != nil {
		return Manifest{}, err
	}
	if meta.Payload {
		return Manifest{}, fmt.Errorf("tracestore: binary: format carries no payload column")
	}
	if meta.Source == "" {
		meta.Source = "binary"
	}
	br := bufio.NewReader(r)
	var buf [binaryRecordSize]byte
	row := 0
	return writeStore(dir, meta, func() (Record, error) {
		row++
		_, err := io.ReadFull(br, buf[:])
		if errors.Is(err, io.EOF) {
			return Record{}, io.EOF
		}
		if err != nil {
			return Record{}, fmt.Errorf("tracestore: binary record %d: %w", row, err)
		}
		le := binary.LittleEndian
		return Record{Access: gpu.Access{
			Sector: le.Uint64(buf[0:8]) / sectorBytes,
			Think:  int64(le.Uint32(buf[8:12])),
			Write:  buf[12]&1 == 1,
		}}, nil
	})
}

// smtrMagic opens every SMTR v1 trace: an 8-byte header (the magic,
// u16 version, u16 reserved) followed by one record per access — the
// think clocks as a uvarint, then the sector shifted left one bit with
// the write flag in bit 0, also a uvarint.
var smtrMagic = [4]byte{'S', 'M', 'T', 'R'}

// smtrVersion is the only SMTR version the importer reads.
const smtrVersion = 1

// ErrBadSMTRHeader reports an SMTR input whose header is truncated or
// carries the wrong magic or version.
var ErrBadSMTRHeader = errors.New("tracestore: bad smtr header")

// ImportSMTR converts a flat SMTR v1 trace into a store at dir. A
// zero-byte input is a valid empty trace and imports as an empty store;
// a bad header fails with ErrBadSMTRHeader before dir is created.
func ImportSMTR(r io.Reader, dir string, meta Meta) (Manifest, error) {
	if meta.Payload {
		return Manifest{}, fmt.Errorf("tracestore: smtr: format carries no payload column")
	}
	br := bufio.NewReader(r)
	var hdr [8]byte
	switch _, err := io.ReadFull(br, hdr[:]); {
	case errors.Is(err, io.EOF):
		// Zero bytes: the record loop below ends at once.
	case errors.Is(err, io.ErrUnexpectedEOF):
		return Manifest{}, fmt.Errorf("%w: truncated", ErrBadSMTRHeader)
	case err != nil:
		return Manifest{}, fmt.Errorf("tracestore: smtr: %w", err)
	case [4]byte(hdr[:4]) != smtrMagic:
		return Manifest{}, fmt.Errorf("%w: magic %q", ErrBadSMTRHeader, hdr[:4])
	case binary.LittleEndian.Uint16(hdr[4:6]) != smtrVersion:
		return Manifest{}, fmt.Errorf("%w: unsupported version %d",
			ErrBadSMTRHeader, binary.LittleEndian.Uint16(hdr[4:6]))
	}
	if meta.Source == "" {
		meta.Source = "smtr"
	}
	row := 0
	return writeStore(dir, meta, func() (Record, error) {
		row++
		think, err := binary.ReadUvarint(br)
		if errors.Is(err, io.EOF) {
			return Record{}, io.EOF
		}
		if err != nil {
			return Record{}, fmt.Errorf("tracestore: smtr record %d: %w", row, err)
		}
		if think > math.MaxInt64 {
			// Would wrap negative on the int64 conversion.
			return Record{}, fmt.Errorf("tracestore: smtr record %d: think %d overflows int64", row, think)
		}
		packed, err := binary.ReadUvarint(br)
		if errors.Is(err, io.EOF) {
			err = io.ErrUnexpectedEOF // the record stops after its think field
		}
		if err != nil {
			return Record{}, fmt.Errorf("tracestore: smtr record %d: %w", row, err)
		}
		return Record{Access: gpu.Access{
			Think:  int64(think),
			Sector: packed >> 1,
			Write:  packed&1 == 1,
		}}, nil
	})
}
