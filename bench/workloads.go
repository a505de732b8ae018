package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"smores/internal/fault"
	"smores/internal/gpu"
	"smores/internal/obs"
	"smores/internal/report"
	"smores/internal/tracestore"
	"smores/internal/workload"
)

// sizes fixes how much work each workload does, independent of the host,
// so two commits measured with the same sizes do identical work.
type sizes struct {
	apps          int   // fleet prefix every workload runs (42 is the whole fleet)
	sweepAccesses int64 // table5-sweep accesses per app and policy
	exactAccesses int64 // exact-link accesses per app and policy
	multiAccesses int64 // multichannel-llc accesses per app
	channels      int   // multichannel-llc channels per app
	storeRecords  int64 // store-replay records per store
}

// fullSize is the benchmark; tinySize keeps the self-tests fast.
// multichannel-llc runs half of report.DefaultAccesses per app, so that its
// eight passes fit the run time on one worker.
var (
	fullSize = sizes{apps: 42, sweepAccesses: 4000, exactAccesses: 2000,
		multiAccesses: report.DefaultAccesses / 2, channels: 8, storeRecords: 16000}
	tinySize = sizes{apps: 3, sweepAccesses: 300, exactAccesses: 1000,
		multiAccesses: 2000, channels: 4, storeRecords: 500}
)

const (
	// profiledSpec is the PolicySpecs index the energy profiler rides in
	// table5-sweep, as in smores-eval: the variable-SMOREs fleet.
	profiledSpec = 2
	// exactFaultRate is exact-link's uniform per-symbol error rate.
	exactFaultRate = 1e-4
	// storeShards is the shard count of each recorded store.
	storeShards = 2
	// multiWorkers is multichannel-llc's shard pool size. Results are
	// identical at any worker count. With 2 workers on the 2-core shared
	// reference host the fastest pass moved by up to 25% between runs of
	// the same code, since any other tenant stalls a worker; with 1 the
	// pool runs on the measured core alone, like the sequential workloads.
	multiWorkers = 1
)

// workloadDef is one named workload. Why each exists is recorded in
// BENCHMARK.json and README.md.
type workloadDef struct {
	name string
	// nominalPass is a little over one pass's wall time on the quiet
	// reference host; the pass count is the -seconds budget divided by it,
	// never below minPasses. It is a constant, so both sides of a
	// comparison make the same number of passes.
	nominalPass time.Duration
	// procs is GOMAXPROCS while passes run. One, so garbage collection
	// shares the measured core instead of racing it on the other one: on
	// the 2-core reference host that cut the pass-to-pass interquartile
	// range of table5-sweep from ~6% to ~1.5%.
	procs int
	setup func(seed uint64, sz sizes) (instance, error)
}

var workloads = []workloadDef{
	{"table5-sweep", 1600 * time.Millisecond, 1, setupSweep},
	{"exact-link", 1900 * time.Millisecond, 1, setupExact},
	{"multichannel-llc", 1800 * time.Millisecond, multiWorkers, setupMulti},
	{"store-replay", 1300 * time.Millisecond, 1, setupStoreReplay},
}

// minPasses is the fewest timed passes a run makes.
const minPasses = 8

func lookupWorkload(name string) (workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q", name)
}

// instance is a set-up workload.
type instance interface {
	// accesses is one pass's LLC-level access count.
	accesses() int64
	// pass runs the timed work once and records the checks it can make
	// on its own outputs.
	pass(c *checks) (passOutput, error)
	// verify compares a pass against an independent computation (untimed).
	verify(first passOutput, c *checks)
	// decompose re-runs one pass layer by layer for the traced run,
	// cross-checking every layer's outputs against ref (trace.go).
	decompose(d *decomposer, ref passOutput) error
	// close releases what setup created.
	close() error
}

// passOutput is what one pass simulated.
type passOutput struct {
	digest digest
	// fleets holds the single-channel fleets, one per spec; multi the
	// multichannel-llc fleet.
	fleets []report.FleetResult
	multi  report.MultiFleetResult
}

// checks counts output checks; every failure counts into the run's
// failed total.
type checks struct {
	attempted, failed int
	notes             []string
}

func (c *checks) expect(ok bool, format string, args ...any) {
	c.attempted++
	if !ok {
		c.failed++
		c.notes = append(c.notes, fmt.Sprintf(format, args...))
	}
}

func (c *checks) noError(err error, what string) {
	c.expect(err == nil, "%s: %v", what, err)
}

func fleetPrefix(n int) []workload.Profile {
	f := workload.Fleet()
	if n < len(f) {
		f = f[:n]
	}
	return f
}

// warmUp runs the first app once per spec, so lazily built codecs and
// energy tables exist before the first timed pass.
func warmUp(fleet []workload.Profile, specs []report.RunSpec) error {
	for _, s := range specs {
		if _, err := report.RunFleetApps(fleet[:1], s, report.FleetOptions{Workers: 1}); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

// fleetSweep runs every spec over a fleet, one app at a time: the shape of
// table5-sweep, exact-link and the replay half of store-replay.
type fleetSweep struct {
	fleet    []workload.Profile
	specs    []report.RunSpec
	profiled []bool // specs that carry an energy profiler
}

func setupSweep(seed uint64, sz sizes) (instance, error) {
	w := &fleetSweep{
		fleet:    fleetPrefix(sz.apps),
		specs:    report.PolicySpecs(sz.sweepAccesses, seed, false),
		profiled: make([]bool, 5),
	}
	w.profiled[profiledSpec] = true
	return w, warmUp(w.fleet, w.specs)
}

func setupExact(seed uint64, sz sizes) (instance, error) {
	all := report.PolicySpecs(sz.exactAccesses, seed, false)
	w := &fleetSweep{
		fleet:    fleetPrefix(sz.apps),
		specs:    []report.RunSpec{all[0], all[profiledSpec]},
		profiled: []bool{true, true},
	}
	for i := range w.specs {
		w.specs[i].ExactData = true
		w.specs[i].Fault = &fault.Config{Model: fault.ModelUniform, Rate: exactFaultRate, Seed: seed, EDC: true}
	}
	return w, warmUp(w.fleet, w.specs)
}

func (w *fleetSweep) accesses() int64 {
	return int64(len(w.specs)*len(w.fleet)) * w.specs[0].Accesses
}

func (w *fleetSweep) pass(c *checks) (passOutput, error) {
	var out passOutput
	for i, spec := range w.specs {
		var prof *obs.Profile
		if w.profiled[i] {
			prof = obs.NewProfile()
			spec.Profile = prof
		}
		fr, err := report.RunFleetApps(w.fleet, spec, report.FleetOptions{Workers: 1})
		if err != nil {
			return passOutput{}, err
		}
		if prof != nil {
			c.noError(report.ReconcileProfile(prof, fr), "profile reconciliation of "+fr.Label)
		}
		out.fleets = append(out.fleets, fr)
	}
	out.digest = fleetDigest(out.fleets)
	return out, nil
}

func (w *fleetSweep) verify(passOutput, *checks) {}

func (w *fleetSweep) close() error { return nil }

func fleetDigest(frs []report.FleetResult) digest {
	var d digest
	for _, fr := range frs {
		var fs *fault.Stats
		if fr.Spec.Fault != nil {
			fs = new(fault.Stats)
		}
		for _, r := range fr.Results {
			d.Clocks += r.Clocks
			d.Reads += r.Reads
			d.Writes += r.Writes
			if fs != nil {
				fs.Add(r.Fault)
			}
		}
		d.addPolicy(fr.Label, fr.MeanPerBit(), fs)
	}
	return d
}

// multiChannel is multichannel-llc: the variable-SMOREs fleet on the
// sharded engine behind a shared LLC.
type multiChannel struct {
	fleet    []workload.Profile
	spec     report.RunSpec
	channels int
	workers  int
}

func setupMulti(seed uint64, sz sizes) (instance, error) {
	return newMulti(seed, sz, multiWorkers)
}

func newMulti(seed uint64, sz sizes, workers int) (*multiChannel, error) {
	w := &multiChannel{
		fleet:    fleetPrefix(sz.apps),
		spec:     report.PolicySpecs(sz.multiAccesses, seed, true)[profiledSpec],
		channels: sz.channels,
		workers:  workers,
	}
	_, err := report.RunFleetAppsMultiChannel(w.fleet[:1], w.spec, w.channels, report.ShardOptions{Workers: w.workers})
	if err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return w, nil
}

func (w *multiChannel) accesses() int64 { return int64(len(w.fleet)) * w.spec.Accesses }

func (w *multiChannel) pass(c *checks) (passOutput, error) {
	spec := w.spec
	prof := obs.NewProfile()
	spec.Profile = prof
	mfr, err := report.RunFleetAppsMultiChannel(w.fleet, spec, w.channels, report.ShardOptions{Workers: w.workers})
	if err != nil {
		return passOutput{}, err
	}
	c.noError(report.ReconcileProfile(prof, busOnly(mfr)), "profile reconciliation")
	var d digest
	for _, r := range mfr.Results {
		d.Clocks += r.Clocks
		d.Reads += r.Reads
		d.Writes += r.Writes
	}
	d.addPolicy(mfr.Label, mfr.MeanPerBit(), nil)
	return passOutput{digest: d, multi: mfr}, nil
}

// busOnly views a multi-channel fleet as the single-channel fleet shape
// report.ReconcileProfile consumes; it reads only the bus totals.
func busOnly(mfr report.MultiFleetResult) report.FleetResult {
	fr := report.FleetResult{Label: mfr.Label}
	for _, r := range mfr.Results {
		fr.Results = append(fr.Results, report.AppResult{App: r.App, Bus: r.Bus})
	}
	return fr
}

func (w *multiChannel) verify(passOutput, *checks) {}

func (w *multiChannel) close() error { return nil }

// storeReplay is store-replay: the fleet's streams recorded into trace
// stores at set-up, then scanned and replayed through variable SMOREs.
type storeReplay struct {
	fleetSweep                    // replays the registered store members
	live       []workload.Profile // the synthetic apps the stores recorded
	dir        string
	stores     []*tracestore.Store
	// last holds each member's most recently opened replay, so a pass can
	// check the replay consumed exactly the store's records. Runs use one
	// worker, so the registry's Open hooks never race.
	last []*countedReplay
}

// countedReplay counts the records a store replay delivered.
type countedReplay struct {
	*tracestore.Replayer
	n int64
}

func (r *countedReplay) Next() (gpu.Access, bool) {
	a, ok := r.Replayer.Next()
	if ok {
		r.n++
	}
	return a, ok
}

func setupStoreReplay(seed uint64, sz sizes) (instance, error) {
	dir, err := os.MkdirTemp("", "smores-bench-stores-")
	if err != nil {
		return nil, err
	}
	w := &storeReplay{live: fleetPrefix(sz.apps), dir: dir}
	if err := w.record(seed, sz); err != nil {
		return nil, errors.Join(err, w.close())
	}
	return w, nil
}

func (w *storeReplay) record(seed uint64, sz sizes) error {
	named := make([]workload.Profile, len(w.live))
	for i, p := range w.live {
		named[i] = p
		named[i].Name = p.Name + "-store"
	}
	// RecordFleetStores derives each app's seed with report.DecorrelateSeed,
	// exactly as the fleet runners do for the live apps.
	_, err := report.RecordFleetStores(named, w.dir, report.RecordOptions{
		Accesses: sz.storeRecords, Seed: seed, Shards: storeShards, Workers: 1,
	})
	if err != nil {
		return err
	}
	w.last = make([]*countedReplay, len(named))
	for i, p := range named {
		s, err := tracestore.Open(filepath.Join(w.dir, p.Name))
		if err != nil {
			return err
		}
		member := tracestore.FleetMember(s)
		err = workload.RegisterExternal(workload.External{
			Profile: member,
			Open: func() (gpu.Generator, error) {
				r, err := s.Replayer()
				if err != nil {
					return nil, err
				}
				w.last[i] = &countedReplay{Replayer: r}
				return w.last[i], nil
			},
		})
		if err != nil {
			return err
		}
		w.stores = append(w.stores, s)
		w.fleet = append(w.fleet, member)
	}
	w.specs = []report.RunSpec{report.PolicySpecs(sz.storeRecords, seed, false)[profiledSpec]}
	w.profiled = []bool{false}
	return warmUp(w.fleet, w.specs)
}

func (w *storeReplay) pass(c *checks) (passOutput, error) {
	for _, s := range w.stores {
		opened, err := tracestore.Open(s.Dir)
		if err != nil {
			return passOutput{}, err
		}
		n, _, err := scanStore(opened)
		c.expect(err == nil && n == s.Manifest.Records,
			"scan of %s read %d of %d records (err %v)", s.Dir, n, s.Manifest.Records, err)
	}
	out, err := w.fleetSweep.pass(c)
	if err != nil {
		return passOutput{}, err
	}
	w.checkConsumed(c)
	return out, nil
}

// checkConsumed verifies each member's last replay delivered exactly the
// store's records and ended cleanly: report never consults Replayer.Err,
// so a truncated or corrupt store would otherwise end its run silently.
func (w *storeReplay) checkConsumed(c *checks) {
	for i, s := range w.stores {
		r := w.last[i]
		if r == nil {
			c.expect(false, "replay of %s never opened", s.Manifest.Name)
			continue
		}
		c.expect(r.n == s.Manifest.Records && r.Err() == nil,
			"replay of %s: consumed %d of %d records (err %v)", s.Manifest.Name, r.n, s.Manifest.Records, r.Err())
	}
}

// verify checks every replayed app against the live synthetic run it
// recorded.
func (w *storeReplay) verify(first passOutput, c *checks) {
	live, err := report.RunFleetApps(w.live, w.specs[0], report.FleetOptions{Workers: 1})
	c.noError(err, "live reference fleet")
	if err != nil || len(first.fleets) == 0 {
		return
	}
	replayed := first.fleets[0].Results
	c.expect(len(live.Results) == len(replayed), "live fleet has %d apps, replay %d", len(live.Results), len(replayed))
	for i := range live.Results {
		if i < len(replayed) {
			c.expect(live.Results[i].Bus.Equal(replayed[i].Bus),
				"%s: replayed bus stats differ from the live run", live.Results[i].App.Name)
		}
	}
}

func (w *storeReplay) close() error {
	for _, p := range w.fleet {
		workload.UnregisterExternal(p.Name)
	}
	return os.RemoveAll(w.dir)
}

// scanStore reads every access field of every record and returns the
// record count and the compressed column bytes read.
func scanStore(s *tracestore.Store) (records, bytesRead int64, err error) {
	r, err := s.NewReader(tracestore.ReadOptions{Fields: tracestore.AccessFields})
	if err != nil {
		return 0, 0, err
	}
	defer r.Close()
	for {
		_, err := r.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return records, 0, err
		}
		records++
	}
	for f := tracestore.FieldThink; f <= tracestore.FieldPayload; f++ {
		bytesRead += r.BytesRead(f)
	}
	return records, bytesRead, nil
}
