package main

// The traced run: one extra pass re-run layer by layer from outside, by
// timing calls into each module's public functions. Every layer's outputs
// are cross-checked against the end-to-end pass, so the decomposition
// measures the same simulation, not an approximation of it.
//
// The controller's own time cannot be timed directly (the bus runs inside
// it), so each controller run is repeated untimed with bus event recording
// on, and the recorded events are replayed into fresh bus channels, once
// per configuration: plain, with the profiler, with the fault hook, and
// with both. memctrl's self time is the driver run minus the replay under
// the run's own configuration; the profiler's and the hook's costs are
// their replays minus the plain one.

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"time"

	"smores/internal/bus"
	"smores/internal/core"
	"smores/internal/fault"
	"smores/internal/gpu"
	"smores/internal/memctrl"
	"smores/internal/mta"
	"smores/internal/obs"
	"smores/internal/report"
	"smores/internal/shard"
	"smores/internal/tracestore"
	"smores/internal/workload"
)

// attrs label a span.
type attrs struct {
	app, policy     string
	channel, worker int
}

type span struct {
	name       string
	id, parent int
	start, dur time.Duration // start is relative to the tracer's origin
	attrs
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// open starts a span now and returns its id (ids start at 1; 0 is "no
// parent").
func (t *tracer) open(name string, parent int, a attrs) int {
	return t.add(name, parent, time.Now(), 0, a)
}

// close ends span id now and returns its duration.
func (t *tracer) close(id int) time.Duration {
	s := &t.spans[id-1]
	s.dur = time.Since(t.t0) - s.start
	return s.dur
}

// add records a span whose bounds were measured elsewhere.
func (t *tracer) add(name string, parent int, start time.Time, dur time.Duration, a attrs) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{name: name, id: id, parent: parent, start: start.Sub(t.t0), dur: dur, attrs: a})
	return id
}

// writeChrome writes the spans as a Chrome trace (chrome://tracing,
// Perfetto): one complete event per span, the worker as the thread.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, len(t.spans))
	for i, s := range t.spans {
		events[i] = event{
			Name: s.name, Ph: "X", PID: 1, TID: s.worker,
			TS:  float64(s.start.Nanoseconds()) / 1e3,
			Dur: float64(s.dur.Nanoseconds()) / 1e3,
			Args: map[string]any{"id": s.id, "parent": s.parent, "app": s.app,
				"policy": s.policy, "channel": s.channel, "worker": s.worker},
		}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// layers accumulates the traced pass's raw measurements.
type layers struct {
	accesses int64 // LLC-level accesses of the pass

	genTime     time.Duration
	genAccesses int64

	constructTime  time.Duration
	constructs     int64
	constructAlloc uint64

	runTime    time.Duration // driver runs (per unit, summed, on the sharded engine)
	runAlloc   uint64
	simClocks  int64
	fullReplay time.Duration // bus replays under each run's own configuration
	bursts     int64         // payload bursts (MTA + sparse), replays excluded

	expectedTime   time.Duration // plain expected-mode replays
	expectedBursts int64
	exactTime      time.Duration // plain exact-mode replays
	exactBursts    int64         // payload bursts and retransmissions
	coreTime       time.Duration
	sparseBursts   int64
	mtaTime        time.Duration
	mtaBeats       int64

	profExpectedDelta  time.Duration
	profExpectedBursts int64
	profExactDelta     time.Duration
	profExactBursts    int64
	faultDelta         time.Duration
	faultBursts        int64
	replayBursts       int64

	llcTime     time.Duration
	llcHits     int64
	llcAccesses int64
	planTime    time.Duration
	units       []time.Duration
	poolWall    time.Duration
	poolWorkers int

	openTime      time.Duration
	stores        int64
	decodeTime    time.Duration
	decodeRecords int64
	decodeAlloc   uint64
	bytesRead     int64
	packTime      time.Duration
	packRecords   int64

	// production is the wall time of the spans that make up the pass
	// itself (not the replays and encodings re-measured beside it).
	production time.Duration
}

func perUnit(total time.Duration, n int64, unit time.Duration) float64 {
	if n == 0 {
		return 0
	}
	return float64(total) / float64(unit) / float64(n)
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// metrics turns the raw measurements into the per-layer metrics;
// fastestPass is the untraced runs' fastest pass, the one accesses_per_s
// reports, so host noise in the other passes does not move the coverage.
// A metric whose layer the pass never ran (its count is zero) is left out.
func (l *layers) metrics(fastestPass time.Duration) map[string]float64 {
	self := l.runTime - l.fullReplay
	var unitSum time.Duration
	unitMS := make([]float64, len(l.units))
	for i, u := range l.units {
		unitSum += u
		unitMS[i] = float64(u) / float64(time.Millisecond)
	}
	unitMax := 0.0
	if len(unitMS) > 0 {
		unitMax = slices.Max(unitMS)
	}
	idle := 0.0
	if l.poolWall > 0 {
		idle = 1 - float64(unitSum)/(float64(l.poolWorkers)*float64(l.poolWall))
	}
	coverage := 0.0
	if fastestPass > 0 {
		coverage = float64(l.production) / float64(fastestPass)
	}
	units := int64(len(l.units))
	out := map[string]float64{}
	for _, m := range []struct {
		name  string
		count int64 // the work the layer did; zero leaves the metric out
		value float64
	}{
		{"workload.gen_ns_per_access", l.genAccesses, perUnit(l.genTime, l.genAccesses, time.Nanosecond)},
		{"tracestore.open_us_per_store", l.stores, perUnit(l.openTime, l.stores, time.Microsecond)},
		{"tracestore.decode_ns_per_record", l.decodeRecords, perUnit(l.decodeTime, l.decodeRecords, time.Nanosecond)},
		{"tracestore.decode_alloc_bytes_per_record", l.decodeRecords, ratio(int64(l.decodeAlloc), l.decodeRecords)},
		{"tracestore.bytes_read_per_record", l.decodeRecords, ratio(l.bytesRead, l.decodeRecords)},
		{"tracestore.pack_ns_per_record", l.packRecords, perUnit(l.packTime, l.packRecords, time.Nanosecond)},
		{"gpu.llc_ns_per_access", l.llcAccesses, perUnit(l.llcTime, l.llcAccesses, time.Nanosecond)},
		{"gpu.llc_hit_ratio", l.llcAccesses, ratio(l.llcHits, l.llcAccesses)},
		{"shard.plan_self_ns_per_access", l.llcAccesses, perUnit(l.planTime-l.llcTime, l.llcAccesses, time.Nanosecond)},
		{"shard.unit_ms_p50", units, summarize(unitMS).median},
		{"shard.unit_ms_max", units, unitMax},
		{"shard.pool_idle_ratio", units, idle},
		{"memctrl.construct_us", l.constructs, perUnit(l.constructTime, l.constructs, time.Microsecond)},
		{"memctrl.construct_alloc_bytes", l.constructs, ratio(int64(l.constructAlloc), l.constructs)},
		{"memctrl.self_ns_per_access", l.simClocks, perUnit(self, l.accesses, time.Nanosecond)},
		{"memctrl.run_alloc_bytes_per_access", l.simClocks, ratio(int64(l.runAlloc), l.accesses)},
		{"memctrl.host_ns_per_sim_clock", l.simClocks, perUnit(self, l.simClocks, time.Nanosecond)},
		{"bus.expected_ns_per_burst", l.expectedBursts, perUnit(l.expectedTime, l.expectedBursts, time.Nanosecond)},
		{"bus.exact_self_ns_per_burst", l.exactBursts, perUnit(l.exactTime-l.coreTime-l.mtaTime, l.exactBursts, time.Nanosecond)},
		{"core.sparse_encode_ns_per_burst", l.sparseBursts, perUnit(l.coreTime, l.sparseBursts, time.Nanosecond)},
		{"mta.encode_ns_per_beat", l.mtaBeats, perUnit(l.mtaTime, l.mtaBeats, time.Nanosecond)},
		{"bus.bursts_per_access", l.accesses, ratio(l.bursts, l.accesses)},
		{"obs.profile_exact_ns_per_burst", l.profExactBursts, perUnit(l.profExactDelta, l.profExactBursts, time.Nanosecond)},
		{"obs.profile_expected_ns_per_burst", l.profExpectedBursts, perUnit(l.profExpectedDelta, l.profExpectedBursts, time.Nanosecond)},
		{"fault.hook_ns_per_burst", l.faultBursts, perUnit(l.faultDelta, l.faultBursts, time.Nanosecond)},
		{"fault.replay_ratio", l.faultBursts, ratio(l.replayBursts, l.faultBursts-l.replayBursts)},
		{"trace.coverage", 1, coverage},
	} {
		if m.count > 0 {
			out[m.name] = m.value
		}
	}
	return out
}

// decomposer runs one traced pass.
type decomposer struct {
	tr   *tracer
	l    layers
	c    *checks
	root int
	// family and codec are the channel's default codecs, which the encode
	// timings drive directly.
	family *core.Family
	codec  *mta.Codec
}

func newDecomposer(tr *tracer, c *checks, accesses int64) *decomposer {
	ch := bus.New(bus.Config{})
	d := &decomposer{tr: tr, c: c, family: ch.Family(), codec: ch.MTACodec()}
	d.l.accesses = accesses
	return d
}

// allocBytes reads the cumulative heap allocation. It stops the world, so
// callers read it outside the intervals they time.
func allocBytes() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// generate drains n accesses of p's stream into a slice.
func (d *decomposer) generate(p workload.Profile, seed uint64, n int64, parent int, a attrs) ([]gpu.Access, error) {
	id := d.tr.open("workload.gen", parent, a)
	gen, err := workload.OpenGenerator(p, seed)
	if err != nil {
		return nil, err
	}
	stream := make([]gpu.Access, 0, n)
	for int64(len(stream)) < n {
		acc, ok := gen.Next()
		if !ok {
			break
		}
		stream = append(stream, acc)
	}
	dur := d.tr.close(id)
	d.l.genTime += dur
	d.l.production += dur
	d.l.genAccesses += int64(len(stream))
	return stream, nil
}

// ctrlRun is one controller run as the report runners build it.
type ctrlRun struct {
	spec   report.RunSpec // policy, scheme, data mode, fault model and profiler
	dcfg   gpu.DriverConfig
	stream []gpu.Access
	attrs
}

// controller mirrors report's RunSpec → memctrl.Config mapping for the
// fields the benchmark's specs set. The traced run's comparison of every
// run's statistics with the end-to-end pass is what proves the mirror.
func (r ctrlRun) controller(record bool, prof *obs.Profile) (*memctrl.Controller, *fault.Injector, error) {
	cfg := memctrl.Config{
		Policy:            r.spec.Policy,
		Scheme:            r.spec.Scheme,
		Pages:             r.spec.Pages,
		ExtraCodecLatency: r.spec.ExtraCodecLatency,
		Replay:            r.spec.Replay,
		Channel:           r.channel,
	}
	cfg.Bus.ExactData = r.spec.ExactData || r.spec.Fault != nil
	cfg.Bus.Profile = prof
	cfg.Bus.Record = record
	in, err := r.injector()
	if err != nil {
		return nil, nil, err
	}
	if in != nil {
		cfg.Fault = in
	}
	ctrl, err := memctrl.New(cfg)
	return ctrl, in, err
}

// injector builds a fresh fault injector (nil on a clean link).
func (r ctrlRun) injector() (*fault.Injector, error) {
	if r.spec.Fault == nil {
		return nil, nil
	}
	return fault.New(*r.spec.Fault)
}

// sequential decomposes a single-channel run: construction, the driver
// run, and the bus replays; ref is the end-to-end pass's result.
func (d *decomposer) sequential(r ctrlRun, ref report.AppResult, parent int) error {
	a0 := allocBytes()
	id := d.tr.open("memctrl.construct", parent, r.attrs)
	ctrl, in, err := r.controller(false, r.spec.Profile)
	if err != nil {
		return err
	}
	drv, err := gpu.NewDriver(r.dcfg, ctrl, shard.NewStreamGen(r.stream))
	if err != nil {
		return err
	}
	construct := d.tr.close(id)
	a1 := allocBytes()
	id = d.tr.open("memctrl.run", parent, r.attrs)
	res, err := drv.Run()
	run := d.tr.close(id)
	a2 := allocBytes()
	if err != nil {
		return err
	}
	d.l.constructTime += construct
	d.l.constructs++
	d.l.constructAlloc += a1 - a0
	d.l.runTime += run
	d.l.runAlloc += a2 - a1
	d.l.simClocks += res.Clocks
	d.l.production += construct + run

	got := ctrl.BusStats()
	d.c.expect(got.Equal(ref.Bus), "%s under %s: traced bus stats differ from the end-to-end run", r.app, r.policy)
	d.c.expect(ctrl.Stats().Equal(ref.Ctrl), "%s under %s: traced controller stats differ from the end-to-end run", r.app, r.policy)
	d.c.expect(res.Clocks == ref.Clocks && res.DRAMReads == ref.Reads && res.DRAMWrites == ref.Writes,
		"%s under %s: traced run length differs from the end-to-end run", r.app, r.policy)
	var fs fault.Stats
	if in != nil {
		fs = in.Stats()
		d.c.expect(fs == ref.Fault, "%s under %s: traced fault stats differ from the end-to-end run", r.app, r.policy)
	}
	return d.replays(r, got, fs, parent)
}

// replays re-runs r untimed with bus recording on, then times replays of
// the recorded events in each configuration the run's layers need. Every
// replay must reproduce want exactly. It runs right after the run it
// decomposes, so both see the host in the same state: the per-layer
// numbers are differences of the two.
func (d *decomposer) replays(r ctrlRun, want bus.Stats, wantFault fault.Stats, parent int) error {
	id := d.tr.open("record", parent, r.attrs)
	ctrl, _, err := r.controller(true, nil)
	if err != nil {
		return err
	}
	drv, err := gpu.NewDriver(r.dcfg, ctrl, shard.NewStreamGen(r.stream))
	if err != nil {
		return err
	}
	if _, err := drv.Run(); err != nil {
		return err
	}
	events := ctrl.BusEvents()
	d.tr.close(id)
	d.c.expect(ctrl.BusStats().Equal(want), "%s under %s: recording changed the run", r.app, r.policy)

	base := bus.Config{
		ExactData:        r.spec.ExactData || r.spec.Fault != nil,
		LevelShiftedIdle: r.spec.Policy == memctrl.OptimizedMTA,
	}
	replay := func(name string, cfg bus.Config) (time.Duration, error) {
		id := d.tr.open(name, parent, r.attrs)
		got, err := replayEvents(cfg, events)
		dur := d.tr.close(id)
		if err != nil {
			return 0, err
		}
		d.c.expect(got.Equal(want), "%s under %s: %s differs from the controller's bus stats", r.app, r.policy, name)
		return dur, nil
	}
	plain, err := replay("bus.replay", base)
	if err != nil {
		return err
	}
	bursts := want.MTABursts + want.SparseBursts
	d.l.bursts += bursts
	profiled, faulty := r.spec.Profile != nil, r.spec.Fault != nil
	full := plain
	if !base.ExactData {
		d.l.expectedTime += plain
		d.l.expectedBursts += bursts
	} else {
		d.l.exactTime += plain
		d.l.exactBursts += bursts + want.ReplayBursts
		d.encodeTimes(events, parent, r.attrs)
	}
	if profiled {
		cfg := base
		cfg.Profile = obs.NewProfile()
		t, err := replay("bus.replay+profile", cfg)
		if err != nil {
			return err
		}
		full = t
		if base.ExactData {
			d.l.profExactDelta += t - plain
			d.l.profExactBursts += bursts + want.ReplayBursts
		} else {
			d.l.profExpectedDelta += t - plain
			d.l.profExpectedBursts += bursts
		}
	}
	if faulty {
		in, err := r.injector()
		if err != nil {
			return err
		}
		cfg := base
		cfg.Fault = in
		t, err := replay("bus.replay+fault", cfg)
		if err != nil {
			return err
		}
		d.c.expect(in.Stats() == wantFault, "%s under %s: replayed fault stats differ from the run's", r.app, r.policy)
		d.l.faultDelta += t - plain
		d.l.faultBursts += bursts + want.ReplayBursts
		d.l.replayBursts += want.ReplayBursts
		full = t
		if profiled {
			if in, err = r.injector(); err != nil {
				return err
			}
			cfg.Fault = in
			cfg.Profile = obs.NewProfile()
			if full, err = replay("bus.replay+profile+fault", cfg); err != nil {
				return err
			}
		}
	}
	d.l.fullReplay += full
	return nil
}

// replayEvents drives a fresh channel through a recorded event sequence.
func replayEvents(cfg bus.Config, events []bus.Event) (bus.Stats, error) {
	ch := bus.New(cfg)
	for _, e := range events {
		var err error
		switch e.Kind {
		case bus.EventBurst:
			err = ch.SendBurst(e.Data, e.CodeLength)
		case bus.EventReplay:
			err = ch.ReplayBurst(e.Data, e.CodeLength)
		case bus.EventPostamble:
			ch.Postamble()
		case bus.EventIdle:
			ch.Idle(e.IdleUIs)
		}
		if err != nil {
			return bus.Stats{}, err
		}
	}
	return ch.Stats(), nil
}

// encodeTimes times the sparse and MTA encoders alone on the recorded
// exact-mode payloads, in transmission order.
func (d *decomposer) encodeTimes(events []bus.Event, parent int, a attrs) {
	var sparse, dense []bus.Event
	for _, e := range events {
		if e.Kind != bus.EventBurst && e.Kind != bus.EventReplay {
			continue
		}
		if e.CodeLength == 0 {
			dense = append(dense, e)
		} else {
			sparse = append(sparse, e)
		}
	}
	var st [bus.Groups]mta.GroupState
	for g := range st {
		st[g] = mta.IdleGroupState()
	}
	scratch := make([]mta.Column, 0, 64)
	var encodeErr error
	id := d.tr.open("core.sparse_encode", parent, a)
	for _, e := range sparse {
		sc := d.family.ByLength(e.CodeLength)
		for g := 0; g < bus.Groups; g++ {
			cols, err := sc.AppendGroupBurst(scratch[:0], e.Data[g*bus.GroupBurstBytes:(g+1)*bus.GroupBurstBytes], &st[g])
			if err != nil && encodeErr == nil {
				encodeErr = err
			}
			scratch = cols
		}
	}
	d.l.coreTime += d.tr.close(id)
	d.l.sparseBursts += int64(len(sparse))
	d.c.noError(encodeErr, "sparse encode of the recorded payloads")

	id = d.tr.open("mta.encode", parent, a)
	for _, e := range dense {
		for g := 0; g < bus.Groups; g++ {
			for beat := 0; beat < 2; beat++ {
				var b [mta.GroupDataWires]byte
				copy(b[:], e.Data[g*bus.GroupBurstBytes+beat*mta.GroupDataWires:])
				d.codec.EncodeGroupBeat(b, &st[g])
			}
		}
	}
	d.l.mtaTime += d.tr.close(id)
	d.l.mtaBeats += int64(len(dense)) * bus.Groups * 2
}

func (w *fleetSweep) decompose(d *decomposer, ref passOutput) error {
	for si, spec := range w.specs {
		if w.profiled[si] {
			spec.Profile = obs.NewProfile()
		}
		fr := ref.fleets[si]
		for i, p := range w.fleet {
			a := attrs{app: p.Name, policy: fr.Label}
			appID := d.tr.open("app", d.root, a)
			stream, err := d.generate(p, report.DecorrelateSeed(spec.Seed, i), spec.Accesses, appID, a)
			if err != nil {
				return err
			}
			r := ctrlRun{spec: spec, dcfg: gpu.DriverConfig{MSHRs: p.MSHRs, MaxAccesses: spec.Accesses}, stream: stream, attrs: a}
			if err := d.sequential(r, fr.Results[i], appID); err != nil {
				return fmt.Errorf("%s under %s: %w", p.Name, fr.Label, err)
			}
			d.tr.close(appID)
		}
	}
	return nil
}

func (w *storeReplay) decompose(d *decomposer, ref passOutput) error {
	for _, s := range w.stores {
		a := attrs{app: s.Manifest.Name}
		id := d.tr.open("tracestore.open", d.root, a)
		opened, err := tracestore.Open(s.Dir)
		open := d.tr.close(id)
		if err != nil {
			return err
		}
		a0 := allocBytes()
		id = d.tr.open("tracestore.decode", d.root, a)
		n, read, err := scanStore(opened)
		decode := d.tr.close(id)
		a1 := allocBytes()
		d.c.expect(err == nil && n == s.Manifest.Records,
			"scan of %s read %d of %d records (err %v)", s.Dir, n, s.Manifest.Records, err)
		d.l.openTime += open
		d.l.stores++
		d.l.decodeTime += decode
		d.l.decodeRecords += n
		d.l.decodeAlloc += a1 - a0
		d.l.bytesRead += read
		d.l.production += open + decode
	}
	if err := w.fleetSweep.decompose(d, ref); err != nil {
		return err
	}
	w.checkConsumed(d.c)
	return w.timePack(d)
}

// timePack times re-packing each store's records into a scratch store: the
// set-up cost a store-replay user pays once per recording.
func (w *storeReplay) timePack(d *decomposer) error {
	dir, err := os.MkdirTemp("", "smores-bench-pack-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	for _, s := range w.stores {
		recs, err := tracestore.ReadAll(s, tracestore.AccessFields)
		if err != nil {
			return err
		}
		m := s.Manifest
		meta := tracestore.Meta{Name: m.Name, Suite: m.Suite, Source: m.Source, Seed: m.Seed, MSHRs: m.MSHRs}
		id := d.tr.open("tracestore.pack", d.root, attrs{app: m.Name})
		packed, err := tracestore.WriteRecords(filepath.Join(dir, m.Name), meta, recs, storeShards)
		d.l.packTime += d.tr.close(id)
		if err != nil {
			return err
		}
		d.c.expect(packed.Records == m.Records && packed.SumThink == m.SumThink,
			"re-packed %s holds %d records, the original %d", m.Name, packed.Records, m.Records)
		d.l.packRecords += packed.Records
	}
	return nil
}

func (w *multiChannel) decompose(d *decomposer, ref passOutput) error {
	llcCfg := gpu.DefaultLLCConfig()
	var units []*shard.Unit
	var runs []ctrlRun
	for i, p := range w.fleet {
		want := ref.multi.Results[i]
		a := attrs{app: p.Name, policy: ref.multi.Label}
		appID := d.tr.open("app", d.root, a)
		stream, err := d.generate(p, report.DecorrelateSeed(w.spec.Seed, i), w.spec.Accesses, appID, a)
		if err != nil {
			return err
		}
		id := d.tr.open("gpu.llc", appID, a)
		llc, err := gpu.NewLLC(llcCfg)
		if err != nil {
			return err
		}
		for _, acc := range stream {
			llc.Access(acc.Sector, acc.Write)
		}
		d.l.llcTime += d.tr.close(id)
		st := llc.Stats()
		d.l.llcHits += st.ReadHits + st.WriteHits
		d.l.llcAccesses += st.Reads + st.Writes

		id = d.tr.open("shard.plan", appID, a)
		plan, err := shard.BuildPlan(shard.NewStreamGen(stream), w.channels, w.spec.Accesses, &llcCfg)
		plantime := d.tr.close(id)
		if err != nil {
			return err
		}
		d.l.planTime += plantime
		d.l.production += plantime
		d.c.expect(plan.LLC == want.LLC && plan.LLC == st, "%s: traced LLC stats differ from the end-to-end run", p.Name)

		for ch := 0; ch < w.channels; ch++ {
			spec := w.spec
			spec.Profile = obs.NewProfile() // per shard, as the engine does
			ca := a
			ca.channel = ch
			r := ctrlRun{spec: spec, dcfg: gpu.DriverConfig{MSHRs: p.MSHRs}, stream: plan.Streams[ch], attrs: ca}
			a0 := allocBytes()
			id := d.tr.open("memctrl.construct", appID, ca)
			ctrl, _, err := r.controller(false, spec.Profile)
			if err != nil {
				return err
			}
			u, err := shard.NewUnit(ch, ctrl, r.dcfg, r.stream)
			if err != nil {
				return err
			}
			construct := d.tr.close(id)
			d.l.constructTime += construct
			d.l.constructs++
			d.l.constructAlloc += allocBytes() - a0
			d.l.production += construct
			units = append(units, u)
			runs = append(runs, r)
		}
		d.tr.close(appID)
	}
	if err := d.pool(units, w.workers); err != nil {
		return err
	}
	for i, want := range ref.multi.Results {
		var cs memctrl.Stats
		for ch := 0; ch < w.channels; ch++ {
			u := units[i*w.channels+ch]
			d.c.expect(u.Ctrl.BusStats().Equal(want.PerChannel[ch]), "%s channel %d: traced bus stats differ from the end-to-end run", want.App.Name, ch)
			cs.Merge(u.Ctrl.Stats())
		}
		d.c.expect(cs.Equal(want.Ctrl), "%s: traced controller stats differ from the end-to-end run", want.App.Name)
	}
	// The pool's units share the host, so memctrl's self time comes from a
	// sequential re-run of each unit, timed right before its replays.
	for k, r := range runs {
		ctrl, _, err := r.controller(false, obs.NewProfile())
		if err != nil {
			return err
		}
		u, err := shard.NewUnit(r.channel, ctrl, r.dcfg, r.stream)
		if err != nil {
			return err
		}
		id := d.tr.open("memctrl.run", d.root, r.attrs)
		err = u.Run()
		d.l.runTime += d.tr.close(id)
		if err != nil {
			return err
		}
		d.l.simClocks += u.Result().Clocks
		want := units[k].Ctrl.BusStats()
		d.c.expect(ctrl.BusStats().Equal(want), "%s channel %d: sequential re-run differs from the pool's", r.app, r.channel)
		if err := d.replays(r, want, fault.Stats{}, d.root); err != nil {
			return err
		}
	}
	return nil
}

// pool runs the units on shard.RunUnits and reconstructs each unit's span
// from the completion hook alone. The pool hands units out in index order
// over an unbuffered channel, so unit k (k ≥ workers) starts when the
// (k−workers)-th completion frees its worker, and inherits that worker.
func (d *decomposer) pool(units []*shard.Unit, workers int) error {
	workers = min(workers, len(units))
	index := make(map[*shard.Unit]int, len(units))
	for k, u := range units {
		index[u] = k
	}
	ends := make([]time.Time, len(units))
	var order []int
	var mu sync.Mutex
	a0 := allocBytes()
	id := d.tr.open("shard.pool", d.root, attrs{})
	start := time.Now()
	err := shard.RunUnits(units, workers, func(u *shard.Unit) {
		now := time.Now()
		mu.Lock()
		defer mu.Unlock()
		ends[index[u]] = now
		order = append(order, index[u])
	})
	wall := d.tr.close(id)
	d.l.runAlloc += allocBytes() - a0
	if err != nil {
		return err
	}
	d.l.poolWall = wall
	d.l.poolWorkers = workers
	d.l.production += wall
	if len(order) != len(units) {
		return errors.New("shard pool reported fewer completions than units")
	}
	worker := make([]int, len(units))
	for k, u := range units {
		begin := start
		worker[k] = k
		if k >= workers {
			prev := order[k-workers]
			begin = ends[prev]
			worker[k] = worker[prev]
		}
		dur := ends[k].Sub(begin)
		d.l.units = append(d.l.units, dur)
		d.tr.add("shard.unit", id, begin, dur, attrs{channel: u.Channel, worker: worker[k]})
	}
	return nil
}
