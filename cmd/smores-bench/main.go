// Command smores-bench is the energy/performance regression gate: it
// runs the standard evaluation matrix (baseline, optimized MTA, and the
// three SMOREs design points) at a fixed access budget and writes a
// BENCH_<date>.json report with, per scheme, the reproduced energy
// (pJ/bit — deterministic), the wall-clock throughput, and the
// allocation profile. With -compare it gates the run against a
// committed baseline: energy must match bit for bit, on the same
// accesses and seed; throughput and allocations are checked only when
// the host fingerprint matches the baseline's (so CI runners still get
// the energy gate against a baseline generated elsewhere).
//
//	smores-bench -out BENCH_baseline.json          # seed a baseline
//	smores-bench -compare BENCH_baseline.json      # gate (exit 1 on regression)
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"smores/internal/report"
)

func main() {
	var (
		accesses = flag.Int64("accesses", report.DefaultBenchAccesses, "per-app workload length")
		seed     = flag.Uint64("seed", 1, "deterministic traffic seed")
		workers  = flag.Int("j", 1, "concurrent app simulations (1 = sequential, most reproducible allocs)")
		out      = flag.String("out", "", "report path (default BENCH_<date>.json; '-' for stdout only)")
		compare  = flag.String("compare", "", "baseline report to gate against")
		perfTol  = flag.String("perf-tolerance", "30%", "relative wall-time/alloc tolerance (same-host only)")
		quiet    = flag.Bool("q", false, "suppress the report table")
	)
	flag.Parse()

	wallTol, err := report.ParseTolerance(*perfTol)
	fail(err)

	rep, err := report.RunBench(report.BenchConfig{
		Accesses: *accesses, Seed: *seed, Workers: *workers,
	})
	fail(err)
	if !*quiet {
		fmt.Print(report.RenderBench(rep))
	}

	path := *out
	if path == "" {
		path = "BENCH_" + time.Now().UTC().Format("2006-01-02") + ".json"
	}
	if path == "-" {
		fail(report.WriteBench(os.Stdout, rep))
	} else {
		f, err := os.Create(path)
		fail(err)
		fail(report.WriteBench(f, rep))
		fail(f.Close())
		fmt.Fprintf(os.Stderr, "smores-bench: wrote %s\n", path)
	}

	if *compare == "" {
		return
	}
	base, err := report.ReadBench(*compare)
	fail(err)
	cmp, err := report.CompareBench(base, rep, wallTol)
	fail(err)
	for _, n := range cmp.Notes {
		fmt.Fprintf(os.Stderr, "smores-bench: note: %s\n", n)
	}
	if len(cmp.Regressions) > 0 {
		for _, r := range cmp.Regressions {
			fmt.Fprintf(os.Stderr, "smores-bench: REGRESSION: %s\n", r)
		}
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "smores-bench: %d schemes match %s — 0 regressions\n",
		len(rep.Schemes), *compare)
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "smores-bench:", err)
		os.Exit(1)
	}
}
