// Command smores-trace records workload access traces into the columnar
// store format (internal/tracestore), inspects them, and replays them
// through the simulator so different encoding policies can be compared
// on bit-identical traffic: -record captures a workload's stream,
// -import ingests external SMTR/CSV/binary memory traces, -scan
// column-scans a store decoding only the requested fields, and
// -info/-replay take a store directory.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"smores/internal/cpuprof"
	"smores/internal/gpu"
	"smores/internal/memctrl"
	"smores/internal/obs"
	"smores/internal/report"
	"smores/internal/tracestore"
	"smores/internal/workload"
)

func main() {
	var (
		record   = flag.String("record", "", "record the named workload into a store at -store")
		info     = flag.String("info", "", "summarize a store directory")
		replay   = flag.String("replay", "", "replay a store directory through the simulator")
		chrome   = flag.String("chrome", "", "during -replay, also write a cycle-level Chrome trace-event JSON (Perfetto) to this file")
		folded   = flag.String("folded", "", "during -replay, write the energy-attribution profile as folded stacks (flamegraph.pl input) to this file")
		profJSON = flag.String("profile", "", "during -replay, write the energy-attribution profile snapshot as JSON to this file")
		accesses = flag.Int64("n", 50000, "accesses to record")
		seed     = flag.Uint64("seed", 1, "generator seed")

		doImport = flag.String("import", "", "import an external memory trace (SMTR, CSV or binary) into a store at -store")
		scan     = flag.String("scan", "", "column-scan a store directory, decoding only -fields")
		verify   = flag.String("verify", "", "read every record of a store, validating every block checksum")

		storeDir  = flag.String("store", "trace.store", "store directory written by -record/-import")
		name      = flag.String("name", "", "workload name for -record/-import (default: the workload, or the source file base name)")
		shards    = flag.Int("shards", 1, "shard count for -record (shards compress in parallel)")
		statsJSON = flag.String("stats-json", "", "with -info, also write per-column stats JSON to this file")

		fields    = flag.String("fields", "sector", "comma-separated columns for -scan (think,sector,flags,payload)")
		minSector = flag.Uint64("min-sector", 0, "with -scan, keep records at or above this sector")
		maxSector = flag.Uint64("max-sector", ^uint64(0), "with -scan, keep records at or below this sector")

		format      = flag.String("format", "", "import format: smtr, csv or binary (default: by file extension)")
		addrCol     = flag.String("addr-col", "", "CSV import: explicit address column header")
		thinkCol    = flag.String("think-col", "", "CSV import: explicit think column header")
		opCol       = flag.String("op-col", "", "CSV import: explicit read/write column header")
		payloadCol  = flag.String("payload-col", "", "CSV import: explicit payload column header")
		sectorBytes = flag.Int("sector-bytes", 0, "import: bytes per sector when dividing byte addresses (default 32)")
		payload     = flag.Bool("payload", false, "CSV import: capture the payload column (exact-data replay)")

		cpuProf = cpuprof.Flag()
	)
	flag.Parse()
	fail(cpuprof.Start(*cpuProf))
	defer cpuprof.Stop()

	importOpts := tracestore.ImportOptions{
		SectorBytes: *sectorBytes,
		AddrCol:     *addrCol,
		ThinkCol:    *thinkCol,
		OpCol:       *opCol,
		PayloadCol:  *payloadCol,
	}
	switch {
	case *record != "":
		fail(doRecord(*record, *storeDir, *name, *accesses, *seed, *shards))
	case *doImport != "":
		fail(runImport(*doImport, *storeDir, *name, *format, *payload, importOpts))
	case *scan != "":
		fail(doScan(*scan, *fields, *minSector, *maxSector))
	case *verify != "":
		fail(doVerify(*verify))
	case *info != "":
		fail(doInfo(*info, *statsJSON))
	case *replay != "":
		fail(doReplay(*replay, *chrome, *folded, *profJSON))
	default:
		flag.Usage()
		cpuprof.Exit(2)
	}
}

func doRecord(app, dir, name string, n int64, seed uint64, shards int) error {
	p, ok := workload.ByName(app)
	if !ok {
		return fmt.Errorf("unknown workload %q", app)
	}
	if n <= 0 {
		return fmt.Errorf("-n %d: record at least one access", n)
	}
	if name != "" {
		p.Name = name
	}
	m, err := report.RecordAppStore(p, dir, report.RecordOptions{Accesses: n, Seed: seed, Shards: shards})
	if err != nil {
		return err
	}
	fmt.Printf("recorded %d accesses of %s into %s (%d shards)\n", m.Records, app, dir, len(m.Shards))
	return nil
}

// defaultName derives a workload name from a source path.
func defaultName(name, source string) string {
	if name != "" {
		return name
	}
	base := filepath.Base(source)
	return strings.TrimSuffix(base, filepath.Ext(base))
}

func runImport(src, dir, name, format string, payload bool, opts tracestore.ImportOptions) error {
	if format == "" {
		switch strings.ToLower(filepath.Ext(src)) {
		case ".smtr":
			format = "smtr"
		case ".csv":
			format = "csv"
		case ".bin", ".mtr":
			format = "binary"
		default:
			return fmt.Errorf("cannot infer import format of %q; pass -format smtr|csv|binary", src)
		}
	}
	f, err := os.Open(src)
	if err != nil {
		return err
	}
	defer f.Close()
	meta := tracestore.Meta{Name: defaultName(name, src), Payload: payload}
	var m tracestore.Manifest
	switch format {
	case "smtr":
		m, err = tracestore.ImportSMTR(f, dir, meta)
	case "csv":
		m, err = tracestore.ImportCSV(f, dir, meta, opts)
	case "binary":
		m, err = tracestore.ImportBinary(f, dir, meta, opts)
	default:
		return fmt.Errorf("unknown import format %q (want smtr, csv or binary)", format)
	}
	if err != nil {
		return err
	}
	fmt.Printf("imported %d records (%d writes) from %s into %s as workload %q\n",
		m.Records, m.Writes, src, dir, m.Name)
	return nil
}

func doScan(dir, fieldList string, minSector, maxSector uint64) error {
	set, err := tracestore.ParseFields(fieldList)
	if err != nil {
		return err
	}
	s, err := tracestore.Open(dir)
	if err != nil {
		return err
	}
	opts := tracestore.ReadOptions{Fields: set}
	if minSector != 0 || maxSector != ^uint64(0) {
		opts.FilterSector = true
		opts.MinSector = minSector
		opts.MaxSector = maxSector
	}
	r, err := s.NewReader(opts)
	if err != nil {
		return err
	}
	defer r.Close()
	var n int64
	for {
		_, err := r.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return err
		}
		n++
	}
	fmt.Printf("scanned %d of %d records (fields %s, %d blocks read, %d skipped)\n",
		n, s.Records(), set, r.BlocksRead(), r.BlocksSkipped())
	for _, f := range []tracestore.Field{tracestore.FieldThink, tracestore.FieldSector,
		tracestore.FieldFlags, tracestore.FieldPayload} {
		fmt.Printf("  %-8s %8d bytes read\n", f, r.BytesRead(f))
	}
	return nil
}

func doVerify(dir string) error {
	s, err := tracestore.Open(dir)
	if err != nil {
		return err
	}
	set := tracestore.AccessFields
	if s.Manifest.Payload {
		set |= tracestore.SetPayload
	}
	recs, err := tracestore.ReadAll(s, set)
	if err != nil {
		return err
	}
	if int64(len(recs)) != s.Records() {
		return fmt.Errorf("store %s: read %d records, manifest claims %d", dir, len(recs), s.Records())
	}
	fmt.Printf("verified %d records across %d shards: all checksums good\n",
		s.Records(), len(s.Manifest.Shards))
	return nil
}

func doInfo(dir, statsJSON string) error {
	s, err := tracestore.Open(dir)
	if err != nil {
		return err
	}
	m := s.Manifest
	fmt.Printf("%s: store of %q (suite %s, source %s), %d records in %d shards\n",
		dir, m.Name, m.Suite, m.Source, m.Records, len(m.Shards))
	if m.Records > 0 {
		fmt.Printf("  %.1f%% writes, mean think %.2f clocks, footprint ≤ %d MB\n",
			float64(m.Writes)/float64(m.Records)*100,
			float64(m.SumThink)/float64(m.Records),
			(m.MaxSector+1)*32>>20)
	}
	st := s.Stats()
	for _, c := range st.Columns {
		fmt.Printf("  %-8s %9d → %9d bytes (%.2fx)\n",
			c.Field, c.RawBytes, c.CompressedBytes, c.Ratio)
	}
	if st.CompressedBytes > 0 {
		fmt.Printf("  total    %9d → %9d bytes (%.2fx, %.2f B/record)\n",
			st.RawBytes, st.CompressedBytes, st.Ratio, st.BytesPerRecord)
	}
	if statsJSON != "" {
		f, err := os.Create(statsJSON)
		if err != nil {
			return err
		}
		if err := tracestore.WriteStatsJSON(f, st); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote store stats to %s\n", statsJSON)
	}
	return nil
}

func doReplay(dir, chrome, folded, profJSON string) error {
	s, err := tracestore.Open(dir)
	if err != nil {
		return err
	}
	rep, err := s.Replayer()
	if err != nil {
		return err
	}
	defer rep.Close()
	cfg := memctrl.Config{Policy: memctrl.BaselineMTA}
	var tracer *obs.Tracer
	if chrome != "" {
		tracer = obs.NewTracer(0)
		cfg.Tracer = tracer
	}
	var prof *obs.Profile
	if folded != "" || profJSON != "" {
		prof = obs.NewProfile()
		cfg.Bus.Profile = prof
	}
	ctrl, err := memctrl.New(cfg)
	if err != nil {
		return err
	}
	drv, err := gpu.NewDriver(gpu.DriverConfig{MSHRs: 48}, ctrl, rep)
	if err != nil {
		return err
	}
	res, err := drv.Run()
	if err != nil {
		return err
	}
	if err := rep.Err(); err != nil {
		return err
	}
	ctrl.DetachTally().Publish(prof)
	fmt.Printf("replayed %d accesses in %d clocks: %.1f fJ/bit, gaps %v\n",
		res.Accesses, res.Clocks, ctrl.BusStats().PerBit(), ctrl.ReadGapHistogram())
	if tracer != nil {
		cf, err := os.Create(chrome)
		if err != nil {
			return err
		}
		if err := tracer.WriteChromeTrace(cf); err != nil {
			cf.Close()
			return err
		}
		if err := cf.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %d trace events to %s (%d dropped by ring)\n",
			tracer.Len(), chrome, tracer.Dropped())
	}
	if prof != nil {
		s := prof.Snapshot()
		write := func(path string, emit func(io.Writer) error) error {
			if path == "" {
				return nil
			}
			pf, err := os.Create(path)
			if err != nil {
				return err
			}
			if err := emit(pf); err != nil {
				pf.Close()
				return err
			}
			if err := pf.Close(); err != nil {
				return err
			}
			fmt.Printf("wrote energy attribution (%.4g fJ over %d symbols) to %s\n",
				prof.TotalEnergy(), prof.TotalSymbols(), path)
			return nil
		}
		if err := write(folded, func(w io.Writer) error { return obs.WriteProfileFolded(w, s) }); err != nil {
			return err
		}
		if err := write(profJSON, func(w io.Writer) error { return obs.WriteProfileJSON(w, s) }); err != nil {
			return err
		}
	}
	return nil
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "smores-trace:", err)
		cpuprof.Exit(1)
	}
}
