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
	"smores/internal/workload"
)

// The bench harness behind cmd/smores-bench: it runs the standard
// evaluation matrix (PolicySpecs) at a fixed access budget and records,
// per scheme, the reproduced energy figure (pJ/bit, deterministic for a
// given accesses/seed), the wall-clock throughput, and the allocation
// profile. Reports serialize as BENCH_<date>.json; CompareBench gates
// regressions against a committed baseline.
//
// Energy is a pure function of (accesses, seed, apps, scheme), so every
// comparison demands it bit for bit. Throughput and allocations depend
// on the machine and scheduler, so they are only enforced when the two
// reports carry the same host fingerprint — a CI runner comparing
// against a baseline generated elsewhere still gets the energy gate.

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
// Energy is deterministic, so the two reports must have run the same
// traffic (accesses, seed and apps; anything else is an error), and a
// scheme whose energy differs from the baseline's at all, up or down,
// is a regression. Wall time and allocations are enforced at perfTol
// only when the host fingerprints match; otherwise those checks are
// skipped with a note.
func CompareBench(baseline, current BenchReport, perfTol float64) (BenchComparison, error) {
	var cmp BenchComparison
	if len(baseline.Schemes) != len(current.Schemes) {
		return BenchComparison{}, fmt.Errorf("bench: scheme counts differ (%d vs %d)",
			len(baseline.Schemes), len(current.Schemes))
	}
	if baseline.Accesses != current.Accesses || baseline.Seed != current.Seed || baseline.Apps != current.Apps {
		return BenchComparison{}, fmt.Errorf(
			"bench: traffic differs (accesses %d/%d, seed %d/%d, apps %d/%d): energies are not comparable",
			baseline.Accesses, current.Accesses, baseline.Seed, current.Seed, baseline.Apps, current.Apps)
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
		if !floats.Eq(c.EnergyPJPerBit, b.EnergyPJPerBit) {
			cmp.Regressions = append(cmp.Regressions, fmt.Sprintf(
				"%s: energy %v pJ/bit vs baseline %v (%+.3g%%): energies must match bit for bit",
				b.Label, c.EnergyPJPerBit, b.EnergyPJPerBit, relDelta(c.EnergyPJPerBit, b.EnergyPJPerBit)*100))
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
	return cmp, nil
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
	return b.String()
}
