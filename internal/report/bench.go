package report

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"smores/internal/floats"
	"smores/internal/tracestore"
	"smores/internal/workload"
)

// The bench harness behind cmd/smores-bench: it runs the standard
// evaluation matrix (PolicySpecs) at a fixed access budget and records,
// per scheme, the reproduced energy figure (pJ/bit, deterministic for a
// given accesses/seed), the wall-clock throughput, and the allocation
// profile. Reports serialize as BENCH_<date>.json; CompareBench gates
// regressions against a committed baseline.
//
// Energy is a pure function of (accesses, seed, scheme) and is enforced
// on every comparison. Throughput and allocations depend on the machine
// and scheduler, so they are only enforced when the two reports carry
// the same host fingerprint — a CI runner comparing against a baseline
// generated elsewhere still gets the energy gate.

// BenchVersion is bumped when the report schema changes incompatibly.
const BenchVersion = 1

// wallNoiseFloorSeconds is the absolute wall-time delta below which a
// relative wall regression is downgraded to a note: at fleet scale a
// real slowdown moves hundreds of milliseconds, while micro-runs live
// entirely inside scheduler jitter.
const wallNoiseFloorSeconds = 0.1

// BenchHost fingerprints the machine a report was generated on.
type BenchHost struct {
	Hostname  string `json:"hostname"`
	OS        string `json:"os"`
	Arch      string `json:"arch"`
	CPUs      int    `json:"cpus"`
	GoVersion string `json:"go_version"`
}

// Fingerprint is the identity used to decide whether machine-dependent
// metrics (throughput, allocations) are comparable.
func (h BenchHost) Fingerprint() string {
	return fmt.Sprintf("%s/%s/%s/%d", h.Hostname, h.OS, h.Arch, h.CPUs)
}

func benchHost() BenchHost {
	hn, _ := os.Hostname()
	return BenchHost{
		Hostname:  hn,
		OS:        runtime.GOOS,
		Arch:      runtime.GOARCH,
		CPUs:      runtime.NumCPU(),
		GoVersion: runtime.Version(),
	}
}

// BenchScheme is one scheme's row in a bench report.
type BenchScheme struct {
	// Label is the controller's Describe() string.
	Label string `json:"label"`
	// EnergyPJPerBit is the fleet-mean transfer energy. Deterministic.
	EnergyPJPerBit float64 `json:"energy_pj_per_bit"`
	// SavingPct is the saving versus the first (baseline) scheme.
	SavingPct float64 `json:"saving_vs_baseline_pct"`
	// WallSeconds is the scheme's fleet wall time; AccessesPerSec the
	// derived simulation throughput. Machine-dependent.
	WallSeconds    float64 `json:"wall_seconds"`
	AccessesPerSec float64 `json:"accesses_per_sec"`
	// AllocBytes and Allocs are the heap traffic of the fleet run
	// (runtime.MemStats deltas). Machine- and scheduler-dependent.
	AllocBytes uint64 `json:"alloc_bytes"`
	Allocs     uint64 `json:"allocs"`
}

// ServiceBench is the telemetry-service throughput row: N sessions at a
// fixed spec submitted over real HTTP and streamed to completion.
// Sessions/sec is machine-dependent (gated same-host only, like wall
// time); the snapshot counters are informational.
type ServiceBench struct {
	// Sessions, AppsPerSession, Accesses pin the fixed spec so rows are
	// only compared like-for-like.
	Sessions       int   `json:"sessions"`
	AppsPerSession int   `json:"apps_per_session"`
	Accesses       int64 `json:"accesses"`
	// WallSeconds covers first submission to last completion (includes
	// HTTP submission and delta-stream consumption).
	WallSeconds    float64 `json:"wall_seconds"`
	SessionsPerSec float64 `json:"sessions_per_sec"`
	// Snapshots counts delta snapshots streamed; Dropped counts ring
	// overwrites under backpressure (drops never block the simulation).
	Snapshots int64 `json:"snapshots_streamed"`
	Dropped   int64 `json:"snapshots_dropped"`
	// Retained/Retired record where the finished sessions ended up when
	// the bench ran with a retention cap (informational, never gated —
	// compareService ignores them).
	Retained int `json:"retained,omitempty"`
	Retired  int `json:"retired,omitempty"`
}

// MultiChannelBench is the sharded multi-channel fleet row: the full
// fleet under the variable-SMOREs scheme across N channels on the
// shard-per-goroutine engine. Energy is deterministic (gated like the
// scheme rows); wall time and shard throughput are machine-dependent
// (same-host only).
type MultiChannelBench struct {
	// Channels, Apps, Accesses, Workers pin the spec so rows are only
	// compared like-for-like.
	Channels int   `json:"channels"`
	Apps     int   `json:"apps"`
	Accesses int64 `json:"accesses"`
	Workers  int   `json:"workers"`
	// EnergyPJPerBit is the fleet-mean transfer energy. Deterministic.
	EnergyPJPerBit float64 `json:"energy_pj_per_bit"`
	// WallSeconds covers front-end planning through the last shard
	// merge; ShardsPerSec is the derived pool throughput.
	WallSeconds  float64 `json:"wall_seconds"`
	ShardsPerSec float64 `json:"shards_per_sec"`
}

// TraceStoreBench is the columnar-store replay row: one app's stream is
// recorded into a store (shard-parallel pack) and replayed through the
// variable-SMOREs controller. Energy and the compressed footprint are
// deterministic (gated like the scheme rows); pack/replay wall times are
// machine-dependent (same-host only). Replay energy is additionally
// checked against the live generator at run time — a mismatch fails the
// bench itself, not just the comparison.
type TraceStoreBench struct {
	// App, Accesses, Shards pin the spec so rows are only compared
	// like-for-like.
	App      string `json:"app"`
	Accesses int64  `json:"accesses"`
	Shards   int    `json:"shards"`
	// EnergyPJPerBit is the replayed run's transfer energy. Deterministic.
	EnergyPJPerBit float64 `json:"energy_pj_per_bit"`
	// CompressedBytes and BytesPerRecord are the store's on-disk cost.
	// Deterministic for a fixed traffic/shard split.
	CompressedBytes int64   `json:"compressed_bytes"`
	BytesPerRecord  float64 `json:"bytes_per_record"`
	// PackWallSeconds covers generation plus shard-parallel compression;
	// ReplayWallSeconds covers the simulated replay; RecordsPerSec is the
	// derived replay throughput. Machine-dependent.
	PackWallSeconds   float64 `json:"pack_wall_seconds"`
	ReplayWallSeconds float64 `json:"replay_wall_seconds"`
	RecordsPerSec     float64 `json:"replay_records_per_sec"`
}

// BenchReport is the full smores-bench output.
type BenchReport struct {
	Version  int           `json:"version"`
	Date     string        `json:"date"`
	Host     BenchHost     `json:"host"`
	Accesses int64         `json:"accesses"`
	Seed     uint64        `json:"seed"`
	Workers  int           `json:"workers"`
	Apps     int           `json:"apps"`
	Schemes  []BenchScheme `json:"schemes"`
	// Service is the optional service-mode throughput row (smores-bench
	// -service); absent from older baselines, which skips its gate.
	Service *ServiceBench `json:"service,omitempty"`
	// MultiChannel is the optional sharded-fleet row (smores-bench
	// -multichannel N); absent from older baselines, which skips its
	// gate.
	MultiChannel *MultiChannelBench `json:"multichannel,omitempty"`
	// TraceStore is the optional store-replay row (smores-bench
	// -tracestore); absent from older baselines, which skips its gate.
	TraceStore *TraceStoreBench `json:"tracestore,omitempty"`
}

// BenchConfig parameterizes RunBench.
type BenchConfig struct {
	// Accesses per app; 0 selects the smores-bench default (4000).
	Accesses int64
	// Seed is the deterministic traffic seed.
	Seed uint64
	// Workers bounds fleet concurrency (1 = sequential, the most
	// reproducible allocation profile).
	Workers int
}

// DefaultBenchAccesses keeps a full 5-scheme bench run to tens of
// seconds while staying long enough that the savings figures match the
// full evaluation to a fraction of a percent.
const DefaultBenchAccesses = 4000

// RunBench runs the standard evaluation matrix and assembles a report.
func RunBench(cfg BenchConfig) (BenchReport, error) {
	if cfg.Accesses <= 0 {
		cfg.Accesses = DefaultBenchAccesses
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	rep := BenchReport{
		Version:  BenchVersion,
		Date:     time.Now().UTC().Format("2006-01-02"),
		Host:     benchHost(),
		Accesses: cfg.Accesses,
		Seed:     cfg.Seed,
		Workers:  cfg.Workers,
	}
	var basePerBit float64
	for i, spec := range PolicySpecs(cfg.Accesses, cfg.Seed, false) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		fr, err := RunFleetApps(workload.Fleet(), spec, FleetOptions{Workers: cfg.Workers})
		wall := time.Since(start)
		runtime.ReadMemStats(&after)
		if err != nil {
			return BenchReport{}, fmt.Errorf("bench scheme %d: %w", i, err)
		}
		rep.Apps = len(fr.Results)
		perBit := fr.MeanPerBit()
		if i == 0 {
			basePerBit = perBit
		}
		row := BenchScheme{
			Label:          fr.Label,
			EnergyPJPerBit: perBit / 1000, // fJ → pJ
			WallSeconds:    wall.Seconds(),
			AllocBytes:     after.TotalAlloc - before.TotalAlloc,
			Allocs:         after.Mallocs - before.Mallocs,
		}
		if basePerBit > 0 {
			row.SavingPct = (1 - perBit/basePerBit) * 100
		}
		if s := wall.Seconds(); s > 0 {
			row.AccessesPerSec = float64(cfg.Accesses) * float64(rep.Apps) / s
		}
		rep.Schemes = append(rep.Schemes, row)
	}
	return rep, nil
}

// RunMultiChannelBench runs the variable-SMOREs fleet through the
// sharded engine and fills rep.MultiChannel. It reuses the report's
// accesses/seed so the row is pinned to the same traffic as the scheme
// rows.
func RunMultiChannelBench(rep *BenchReport, channels, workers int) error {
	if channels < 2 {
		return fmt.Errorf("bench: multichannel row needs ≥2 channels, got %d", channels)
	}
	spec := PolicySpecs(rep.Accesses, rep.Seed, false)[2]
	start := time.Now()
	fr, err := RunFleetAppsMultiChannel(workload.Fleet(), spec, channels, ShardOptions{Workers: workers})
	wall := time.Since(start)
	if err != nil {
		return fmt.Errorf("bench: multichannel fleet: %w", err)
	}
	row := MultiChannelBench{
		Channels:       channels,
		Apps:           len(fr.Results),
		Accesses:       rep.Accesses,
		Workers:        workers,
		EnergyPJPerBit: fr.MeanPerBit() / 1000, // fJ → pJ
		WallSeconds:    wall.Seconds(),
	}
	if s := wall.Seconds(); s > 0 {
		row.ShardsPerSec = float64(len(fr.Results)*channels) / s
	}
	rep.MultiChannel = &row
	return nil
}

// RunTraceStoreBench records one fleet application's stream into a
// columnar store under a temporary directory (shard-parallel pack),
// replays the store through the variable-SMOREs controller as a
// registered trace-backed member, and fills rep.TraceStore. The
// replayed statistics must match the live generator's exactly — any
// divergence fails the bench, so the row doubles as an end-to-end
// replay gate. It reuses the report's accesses/seed so the row is
// pinned to the same traffic as the scheme rows.
func RunTraceStoreBench(rep *BenchReport, shards int) error {
	fleet := workload.Fleet()
	if len(fleet) == 0 {
		return fmt.Errorf("bench: tracestore row needs a non-empty fleet")
	}
	p := fleet[0]
	spec := PolicySpecs(rep.Accesses, rep.Seed, false)[2]
	live, err := RunApp(p, spec)
	if err != nil {
		return fmt.Errorf("bench: tracestore live run: %w", err)
	}
	dir, err := os.MkdirTemp("", "smores-bench-store-")
	if err != nil {
		return fmt.Errorf("bench: tracestore: %w", err)
	}
	defer os.RemoveAll(dir)

	// Record under a distinct name so the replay member can register
	// beside the live fleet app; the stream itself depends only on the
	// seed and the shape parameters, never the name.
	rec := p
	rec.Name = p.Name + "-store"
	start := time.Now()
	if _, err := RecordAppStore(rec, dir, RecordOptions{
		Accesses: rep.Accesses, Seed: spec.Seed, Shards: shards,
	}); err != nil {
		return fmt.Errorf("bench: tracestore pack: %w", err)
	}
	packWall := time.Since(start)

	sp, err := tracestore.RegisterFleetMember(dir)
	if err != nil {
		return fmt.Errorf("bench: tracestore register: %w", err)
	}
	defer workload.UnregisterExternal(sp.Name)
	start = time.Now()
	replay, err := RunApp(sp, spec)
	replayWall := time.Since(start)
	if err != nil {
		return fmt.Errorf("bench: tracestore replay: %w", err)
	}
	if !replay.Bus.Equal(live.Bus) || !floats.Eq(replay.PerBit, live.PerBit) {
		return fmt.Errorf("bench: store replay diverged from the live run (%.6f vs %.6f fJ/bit)",
			replay.PerBit, live.PerBit)
	}

	s, err := tracestore.Open(dir)
	if err != nil {
		return fmt.Errorf("bench: tracestore reopen: %w", err)
	}
	st := s.Stats()
	row := TraceStoreBench{
		App:               p.Name,
		Accesses:          rep.Accesses,
		Shards:            st.Shards,
		EnergyPJPerBit:    replay.PerBit / 1000, // fJ → pJ
		CompressedBytes:   st.CompressedBytes,
		BytesPerRecord:    st.BytesPerRecord,
		PackWallSeconds:   packWall.Seconds(),
		ReplayWallSeconds: replayWall.Seconds(),
	}
	if sec := replayWall.Seconds(); sec > 0 {
		row.RecordsPerSec = float64(rep.Accesses) / sec
	}
	rep.TraceStore = &row
	return nil
}

// WriteBench serializes a report as indented JSON.
func WriteBench(w io.Writer, rep BenchReport) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// ReadBench loads a report from a JSON file.
func ReadBench(path string) (BenchReport, error) {
	var rep BenchReport
	data, err := os.ReadFile(path)
	if err != nil {
		return BenchReport{}, err
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		return BenchReport{}, fmt.Errorf("bench: %s: %w", path, err)
	}
	if rep.Version != BenchVersion {
		return BenchReport{}, fmt.Errorf("bench: %s is schema v%d, this binary expects v%d",
			path, rep.Version, BenchVersion)
	}
	return rep, nil
}

// ParseTolerance accepts "5%" or "0.05" (both meaning ±5 % relative).
func ParseTolerance(s string) (float64, error) {
	s = strings.TrimSpace(s)
	pct := strings.HasSuffix(s, "%")
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
	if err != nil {
		return 0, fmt.Errorf("bench: bad tolerance %q: %w", s, err)
	}
	if pct {
		v /= 100
	}
	// Inclusive upper bound: "100%" (accept any regression up to 2×) is a
	// legitimate way to effectively disable a gate, e.g. energy-only runs
	// on loaded hosts where wall time is meaningless.
	if v < 0 || v > 1 {
		return 0, fmt.Errorf("bench: tolerance %q outside [0,1]", s)
	}
	return v, nil
}

// BenchComparison is the outcome of CompareBench: hard regressions
// (non-empty fails the gate) and informational notes (skipped checks,
// improvements).
type BenchComparison struct {
	Regressions []string
	Notes       []string
}

// CompareBench checks a current report against a committed baseline.
// Energy per scheme is enforced at energyTol (relative) whenever the two
// reports ran the same accesses/seed matrix. Wall time and allocations
// are enforced at perfTol only when the host fingerprints match;
// otherwise those checks are skipped with a note.
func CompareBench(baseline, current BenchReport, energyTol, perfTol float64) (BenchComparison, error) {
	var cmp BenchComparison
	if len(baseline.Schemes) != len(current.Schemes) {
		return BenchComparison{}, fmt.Errorf("bench: scheme counts differ (%d vs %d)",
			len(baseline.Schemes), len(current.Schemes))
	}
	sameTraffic := baseline.Accesses == current.Accesses &&
		baseline.Seed == current.Seed && baseline.Apps == current.Apps
	if !sameTraffic {
		cmp.Notes = append(cmp.Notes, fmt.Sprintf(
			"traffic differs (accesses %d/%d, seed %d/%d): energy compared at reduced confidence",
			baseline.Accesses, current.Accesses, baseline.Seed, current.Seed))
	}
	samePerf := baseline.Host.Fingerprint() == current.Host.Fingerprint() &&
		baseline.Workers == current.Workers
	if !samePerf {
		cmp.Notes = append(cmp.Notes, fmt.Sprintf(
			"host fingerprints differ (%s vs %s): throughput/alloc checks skipped",
			baseline.Host.Fingerprint(), current.Host.Fingerprint()))
	}

	for i, b := range baseline.Schemes {
		c := current.Schemes[i]
		if b.Label != c.Label {
			cmp.Regressions = append(cmp.Regressions, fmt.Sprintf(
				"scheme %d: label %q became %q", i, b.Label, c.Label))
			continue
		}
		if rel := relDelta(c.EnergyPJPerBit, b.EnergyPJPerBit); rel > energyTol {
			cmp.Regressions = append(cmp.Regressions, fmt.Sprintf(
				"%s: energy %.4f pJ/bit vs baseline %.4f (+%.2f%% > %.2f%% tolerance)",
				b.Label, c.EnergyPJPerBit, b.EnergyPJPerBit, rel*100, energyTol*100))
		} else if rel < -energyTol {
			cmp.Notes = append(cmp.Notes, fmt.Sprintf(
				"%s: energy improved %.2f%% — consider refreshing the baseline", b.Label, -rel*100))
		}
		if !samePerf {
			continue
		}
		if rel := relDelta(c.WallSeconds, b.WallSeconds); rel > perfTol {
			// A relative gate alone flakes on micro-runs: a smoke pass at
			// tiny -accesses finishes in milliseconds, where +5% is OS
			// scheduler jitter, not a regression. Below an absolute floor
			// the excursion is reported as a note instead.
			if c.WallSeconds-b.WallSeconds > wallNoiseFloorSeconds {
				cmp.Regressions = append(cmp.Regressions, fmt.Sprintf(
					"%s: wall time %.2fs vs baseline %.2fs (+%.1f%% > %.1f%% tolerance)",
					b.Label, c.WallSeconds, b.WallSeconds, rel*100, perfTol*100))
			} else {
				cmp.Notes = append(cmp.Notes, fmt.Sprintf(
					"%s: wall time +%.1f%% but only %+.0f ms absolute (noise floor %d ms): ignored",
					b.Label, rel*100, (c.WallSeconds-b.WallSeconds)*1e3, int(wallNoiseFloorSeconds*1e3)))
			}
		}
		if rel := relDelta(float64(c.Allocs), float64(b.Allocs)); rel > perfTol {
			cmp.Regressions = append(cmp.Regressions, fmt.Sprintf(
				"%s: %d allocs vs baseline %d (+%.1f%% > %.1f%% tolerance)",
				b.Label, c.Allocs, b.Allocs, rel*100, perfTol*100))
		}
	}
	compareService(&cmp, baseline.Service, current.Service, samePerf, perfTol)
	compareMultiChannel(&cmp, baseline.MultiChannel, current.MultiChannel, samePerf, energyTol, perfTol)
	compareTraceStore(&cmp, baseline.TraceStore, current.TraceStore, samePerf, energyTol, perfTol)
	return cmp, nil
}

// compareMultiChannel gates the sharded-fleet row. Energy is enforced
// whenever both rows ran the same channels/apps/accesses spec (it is
// deterministic, like the scheme rows); wall time follows the same-host
// rule with the absolute noise floor. A row missing from either side
// downgrades to a note so pre-sharding baselines keep gating the rest.
func compareMultiChannel(cmp *BenchComparison, b, c *MultiChannelBench, samePerf bool, energyTol, perfTol float64) {
	switch {
	case b == nil && c == nil:
		return
	case b == nil:
		cmp.Notes = append(cmp.Notes,
			"baseline has no multichannel row: multichannel gate skipped (refresh the baseline with -multichannel to enable)")
		return
	case c == nil:
		cmp.Notes = append(cmp.Notes,
			"current report has no multichannel row: multichannel gate skipped")
		return
	case b.Channels != c.Channels || b.Apps != c.Apps || b.Accesses != c.Accesses:
		cmp.Notes = append(cmp.Notes, fmt.Sprintf(
			"multichannel rows ran different specs (%dch×%d×%d vs %dch×%d×%d): gate skipped",
			b.Channels, b.Apps, b.Accesses, c.Channels, c.Apps, c.Accesses))
		return
	}
	if rel := relDelta(c.EnergyPJPerBit, b.EnergyPJPerBit); rel > energyTol {
		cmp.Regressions = append(cmp.Regressions, fmt.Sprintf(
			"multichannel: energy %.4f pJ/bit vs baseline %.4f (+%.2f%% > %.2f%% tolerance)",
			c.EnergyPJPerBit, b.EnergyPJPerBit, rel*100, energyTol*100))
	} else if rel < -energyTol {
		cmp.Notes = append(cmp.Notes, fmt.Sprintf(
			"multichannel: energy improved %.2f%% — consider refreshing the baseline", -rel*100))
	}
	if !samePerf || b.Workers != c.Workers {
		return // covered by the host-fingerprint note / different pool sizes
	}
	if rel := relDelta(c.WallSeconds, b.WallSeconds); rel > perfTol {
		if c.WallSeconds-b.WallSeconds > wallNoiseFloorSeconds {
			cmp.Regressions = append(cmp.Regressions, fmt.Sprintf(
				"multichannel: %.1f shards/s vs baseline %.1f (wall %.2fs vs %.2fs, +%.1f%% > %.1f%% tolerance)",
				c.ShardsPerSec, b.ShardsPerSec, c.WallSeconds, b.WallSeconds, rel*100, perfTol*100))
		} else {
			cmp.Notes = append(cmp.Notes, fmt.Sprintf(
				"multichannel: wall +%.1f%% but only %+.0f ms absolute (noise floor %d ms): ignored",
				rel*100, (c.WallSeconds-b.WallSeconds)*1e3, int(wallNoiseFloorSeconds*1e3)))
		}
	}
}

// compareTraceStore gates the store-replay row. Energy is deterministic
// and enforced whenever both rows recorded the same app/accesses; the
// compressed footprint is deterministic for a fixed shard split and is
// gated at the energy tolerance when the splits match (a store that
// grows past tolerance is a compression regression). Wall times follow
// the same-host rule with the absolute noise floor. A row missing from
// either side downgrades to a note so older baselines keep gating the
// rest.
func compareTraceStore(cmp *BenchComparison, b, c *TraceStoreBench, samePerf bool, energyTol, perfTol float64) {
	switch {
	case b == nil && c == nil:
		return
	case b == nil:
		cmp.Notes = append(cmp.Notes,
			"baseline has no tracestore row: store-replay gate skipped (refresh the baseline with -tracestore to enable)")
		return
	case c == nil:
		cmp.Notes = append(cmp.Notes,
			"current report has no tracestore row: store-replay gate skipped")
		return
	case b.App != c.App || b.Accesses != c.Accesses:
		cmp.Notes = append(cmp.Notes, fmt.Sprintf(
			"tracestore rows recorded different traffic (%s×%d vs %s×%d): gate skipped",
			b.App, b.Accesses, c.App, c.Accesses))
		return
	}
	if rel := relDelta(c.EnergyPJPerBit, b.EnergyPJPerBit); rel > energyTol {
		cmp.Regressions = append(cmp.Regressions, fmt.Sprintf(
			"tracestore: replay energy %.4f pJ/bit vs baseline %.4f (+%.2f%% > %.2f%% tolerance)",
			c.EnergyPJPerBit, b.EnergyPJPerBit, rel*100, energyTol*100))
	} else if rel < -energyTol {
		cmp.Notes = append(cmp.Notes, fmt.Sprintf(
			"tracestore: replay energy improved %.2f%% — consider refreshing the baseline", -rel*100))
	}
	if b.Shards == c.Shards {
		if rel := relDelta(float64(c.CompressedBytes), float64(b.CompressedBytes)); rel > energyTol {
			cmp.Regressions = append(cmp.Regressions, fmt.Sprintf(
				"tracestore: store %d B vs baseline %d B (+%.2f%% > %.2f%% tolerance)",
				c.CompressedBytes, b.CompressedBytes, rel*100, energyTol*100))
		} else if rel < -energyTol {
			cmp.Notes = append(cmp.Notes, fmt.Sprintf(
				"tracestore: store shrank %.2f%% — consider refreshing the baseline", -rel*100))
		}
	} else {
		cmp.Notes = append(cmp.Notes, fmt.Sprintf(
			"tracestore rows packed different shard splits (%d vs %d): footprint gate skipped",
			b.Shards, c.Shards))
	}
	if !samePerf {
		return // covered by the host-fingerprint note
	}
	wall := func(label string, cw, bw float64) {
		if rel := relDelta(cw, bw); rel > perfTol {
			if cw-bw > wallNoiseFloorSeconds {
				cmp.Regressions = append(cmp.Regressions, fmt.Sprintf(
					"tracestore: %s %.2fs vs baseline %.2fs (+%.1f%% > %.1f%% tolerance)",
					label, cw, bw, rel*100, perfTol*100))
			} else {
				cmp.Notes = append(cmp.Notes, fmt.Sprintf(
					"tracestore: %s +%.1f%% but only %+.0f ms absolute (noise floor %d ms): ignored",
					label, rel*100, (cw-bw)*1e3, int(wallNoiseFloorSeconds*1e3)))
			}
		}
	}
	wall("pack wall", c.PackWallSeconds, b.PackWallSeconds)
	wall("replay wall", c.ReplayWallSeconds, b.ReplayWallSeconds)
}

// compareService gates the service-throughput row. Like wall time it is
// machine-dependent (same-host only) and protected by the absolute
// noise floor; a row missing from either side downgrades to a note so
// pre-service baselines keep gating energy.
func compareService(cmp *BenchComparison, b, c *ServiceBench, samePerf bool, perfTol float64) {
	switch {
	case b == nil && c == nil:
		return
	case b == nil:
		cmp.Notes = append(cmp.Notes,
			"baseline has no service-throughput row: service gate skipped (refresh the baseline with -service to enable)")
		return
	case c == nil:
		cmp.Notes = append(cmp.Notes,
			"current report has no service-throughput row: service gate skipped")
		return
	case !samePerf:
		return // covered by the host-fingerprint note
	case b.Sessions != c.Sessions || b.AppsPerSession != c.AppsPerSession || b.Accesses != c.Accesses:
		cmp.Notes = append(cmp.Notes, fmt.Sprintf(
			"service rows ran different specs (%d×%d×%d vs %d×%d×%d): gate skipped",
			b.Sessions, b.AppsPerSession, b.Accesses, c.Sessions, c.AppsPerSession, c.Accesses))
		return
	}
	if rel := relDelta(c.WallSeconds, b.WallSeconds); rel > perfTol {
		if c.WallSeconds-b.WallSeconds > wallNoiseFloorSeconds {
			cmp.Regressions = append(cmp.Regressions, fmt.Sprintf(
				"service: %.1f sessions/s vs baseline %.1f (wall %.2fs vs %.2fs, +%.1f%% > %.1f%% tolerance)",
				c.SessionsPerSec, b.SessionsPerSec, c.WallSeconds, b.WallSeconds, rel*100, perfTol*100))
		} else {
			cmp.Notes = append(cmp.Notes, fmt.Sprintf(
				"service: wall +%.1f%% but only %+.0f ms absolute (noise floor %d ms): ignored",
				rel*100, (c.WallSeconds-b.WallSeconds)*1e3, int(wallNoiseFloorSeconds*1e3)))
		}
	}
}

// relDelta is (cur-base)/base, 0 when the baseline is 0.
func relDelta(cur, base float64) float64 {
	if floats.Eq(base, 0) {
		return 0
	}
	return (cur - base) / base
}

// RenderBench formats a report as an aligned table.
func RenderBench(rep BenchReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "smores-bench %s — %d apps × %d accesses, seed %d, %d worker(s) on %s\n",
		rep.Date, rep.Apps, rep.Accesses, rep.Seed, rep.Workers, rep.Host.Fingerprint())
	fmt.Fprintf(&b, "  %-34s %12s %8s %9s %12s %12s\n",
		"scheme", "pJ/bit", "saving", "wall(s)", "accesses/s", "allocs")
	for _, s := range rep.Schemes {
		fmt.Fprintf(&b, "  %-34s %12.4f %7.1f%% %9.2f %12.0f %12d\n",
			s.Label, s.EnergyPJPerBit, s.SavingPct, s.WallSeconds, s.AccessesPerSec, s.Allocs)
	}
	if s := rep.Service; s != nil {
		fmt.Fprintf(&b, "  service: %d sessions × %d apps × %d accesses — %.2f s wall, %.1f sessions/s, %d snapshots streamed (%d dropped)\n",
			s.Sessions, s.AppsPerSession, s.Accesses, s.WallSeconds, s.SessionsPerSec, s.Snapshots, s.Dropped)
	}
	if m := rep.MultiChannel; m != nil {
		fmt.Fprintf(&b, "  multichannel: %d channels × %d apps × %d accesses, %d worker(s) — %.4f pJ/bit, %.2f s wall, %.1f shards/s\n",
			m.Channels, m.Apps, m.Accesses, m.Workers, m.EnergyPJPerBit, m.WallSeconds, m.ShardsPerSec)
	}
	if t := rep.TraceStore; t != nil {
		fmt.Fprintf(&b, "  tracestore: %s × %d accesses in %d shard(s) — %.4f pJ/bit, %d B (%.1f B/rec), pack %.2f s, replay %.2f s (%.0f rec/s)\n",
			t.App, t.Accesses, t.Shards, t.EnergyPJPerBit, t.CompressedBytes, t.BytesPerRecord,
			t.PackWallSeconds, t.ReplayWallSeconds, t.RecordsPerSec)
	}
	return b.String()
}
