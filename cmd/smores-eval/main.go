// Command smores-eval regenerates the paper's evaluation: the idle-gap
// profile (Figure 5), the per-application energy comparisons (Figures
// 8a/8b), the scheme-comparison savings (Table V), the performance-impact
// analysis, and the total-DRAM-power contextualization.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"smores/internal/cpuprof"
	"smores/internal/obs"
	"smores/internal/pam4"
	"smores/internal/report"
	"smores/internal/sweep"
	"smores/internal/tracestore"
	"smores/internal/workload"
)

func main() {
	var (
		fig5     = flag.Bool("fig5", false, "print the idle-gap distributions (Figure 5)")
		fig8a    = flag.Bool("fig8a", false, "print energy vs MTA+postamble per app (Figure 8a)")
		fig8b    = flag.Bool("fig8b", false, "print energy vs optimized MTA per app (Figure 8b)")
		table5   = flag.Bool("table5", false, "print the scheme comparison (Table V)")
		perf     = flag.Bool("perf", false, "print the performance impact")
		power    = flag.Bool("power", false, "print the total-DRAM-power context")
		wfall    = flag.Bool("waterfall", false, "print the energy-savings waterfall with the profiler's phase decomposition")
		all      = flag.Bool("all", false, "print everything")
		sweeps   = flag.Bool("sweep", false, "run the window/latency sensitivity sweeps instead")
		csvDir   = flag.String("csv", "", "also write machine-readable CSV/JSON artifacts to this directory")
		jsonOut  = flag.String("json", "", "write the full machine-readable evaluation (per-app rows) to this file ('-' for stdout)")
		accesses = flag.Int64("accesses", report.DefaultAccesses, "per-app workload length")
		seed     = flag.Uint64("seed", 1, "deterministic seed")
		workers  = flag.Int("j", 0, "concurrent app simulations per fleet (0 = GOMAXPROCS, 1 = sequential)")
		channels = flag.Int("channels", 1, "interleaved GDDR6X channels per app; >1 switches to the sharded multi-channel evaluation")
		traces   = flag.String("trace", "", "comma-separated trace-store directories (smores-trace -record/-import) evaluated as additional fleet members")
		cpuProf  = cpuprof.Flag()
	)
	flag.Parse()
	fail(cpuprof.Start(*cpuProf))
	defer cpuprof.Stop()
	fleet := workload.Fleet()
	if *traces != "" {
		for _, dir := range strings.Split(*traces, ",") {
			p, err := tracestore.RegisterFleetMember(strings.TrimSpace(dir))
			fail(err)
			fleet = append(fleet, p)
			fmt.Fprintf(os.Stderr, "smores-eval: registered trace store %s as fleet member %q\n", dir, p.Name)
		}
	}
	if *sweeps {
		cfg := sweep.Config{Accesses: *accesses / 4, Seed: *seed}
		if cfg.Accesses < 500 {
			cfg.Accesses = 500
		}
		pts, err := sweep.ConservativeWindow(cfg, []int{2, 3, 4, 6, 8, 12, 16})
		fail(err)
		fmt.Println(sweep.Render("Conservative detection-window sweep (paper fixes 8 clocks)", "clocks", pts))
		pts, err = sweep.ReadLatency(cfg, []int64{20, 25, 30, 35, 40})
		fail(err)
		fmt.Println(sweep.Render("Read-latency sensitivity (exhaustive/static)", "RL clocks", pts))
		return
	}
	if *channels > 1 {
		runMultiChannel(fleet, *channels, *accesses, *seed, *workers, *jsonOut)
		return
	}
	if !(*fig5 || *fig8a || *fig8b || *table5 || *perf || *power || *wfall) {
		*all = true
	}

	specs := report.PolicySpecs(*accesses, *seed, false)
	labels := []string{"baseline", "optimized", "variable", "static", "conservative"}

	// Energy attribution for the waterfall's phase decomposition: the
	// profiler rides the variable-SMOREs fleet (specs[2]) so its cells
	// reconcile with exactly that fleet's bus totals.
	prof := obs.NewProfile()
	specs[2].Profile = prof

	opts := report.FleetOptions{Workers: *workers}
	frs := make([]report.FleetResult, len(specs))
	for i, s := range specs {
		fmt.Fprintf(os.Stderr, "running fleet under %s...\n", labels[i])
		fr, err := report.RunFleetApps(fleet, s, opts)
		fail(err)
		frs[i] = fr
	}
	base, opt, variable, static, cons := frs[0], frs[1], frs[2], frs[3], frs[4]

	if *all || *fig5 {
		fmt.Println(report.Fig5Gaps(base))
	}
	if *all || *fig8a {
		fmt.Println(report.Fig8Energy(base, []report.FleetResult{variable, static},
			"Figure 8a — per-bit energy normalized to MTA+postamble"))
	}
	if *all || *fig8a {
		fmt.Println(report.SuiteSummary(base, []report.FleetResult{variable, static, cons}))
	}
	if *all || *fig8b {
		fmt.Println(report.Fig8Energy(opt, []report.FleetResult{variable, static},
			"Figure 8b — per-bit energy normalized to optimized MTA (no postamble energy)"))
	}
	if *all || *table5 {
		fmt.Println(report.Table5(base, variable, static, cons))
	}
	if *all || *perf {
		fmt.Println(report.PerfTable(base, []report.FleetResult{variable, static, cons}))
	}
	if *all || *power {
		fmt.Println(report.TotalPowerContext(base, variable))
	}
	if *all || *wfall {
		fail(report.ReconcileProfile(prof, variable))
		w, err := report.BuildWaterfall(base, opt, variable, prof)
		fail(err)
		fmt.Println(report.RenderWaterfall(w))
	}
	if *jsonOut != "" {
		out := os.Stdout
		if *jsonOut != "-" {
			f, err := os.Create(*jsonOut)
			fail(err)
			defer f.Close()
			out = f
		}
		fail(report.ExportEvalJSON(out, frs))
		if *jsonOut != "-" {
			fmt.Fprintf(os.Stderr, "wrote evaluation JSON to %s\n", *jsonOut)
		}
	}
	if *csvDir != "" {
		fail(os.MkdirAll(*csvDir, 0o755))
		for i, fr := range frs {
			f, err := os.Create(filepath.Join(*csvDir, "fleet_"+labels[i]+".csv"))
			fail(err)
			fail(report.ExportFleetCSV(f, fr))
			fail(f.Close())
		}
		f, err := os.Create(filepath.Join(*csvDir, "gaps_baseline.csv"))
		fail(err)
		fail(report.ExportGapsCSV(f, base))
		fail(f.Close())
		f, err = os.Create(filepath.Join(*csvDir, "table4.json"))
		fail(err)
		fail(report.ExportTable4JSON(f, pam4.DefaultEnergyModel()))
		fail(f.Close())
		fmt.Fprintf(os.Stderr, "wrote CSV/JSON artifacts to %s\n", *csvDir)
	}
}

// runMultiChannel is the `-channels N` evaluation: every policy's fleet
// runs through the shard-per-goroutine engine, where -j bounds how many
// apps run at once — each worker takes one app, runs its front end and
// its channel shards, and keeps only the merged result, so memory is
// bounded by -j rather than by apps × channels. For a fixed seed the
// summary and the -json export are byte-identical at every -j (the
// report package's differential tests and cmd/smoke enforce it).
func runMultiChannel(fleet []workload.Profile, channels int, accesses int64, seed uint64, workers int, jsonOut string) {
	specs := report.PolicySpecs(accesses, seed, false)
	labels := []string{"baseline", "optimized", "variable", "static", "conservative"}
	opts := report.ShardOptions{Workers: workers}
	mfrs := make([]report.MultiFleetResult, len(specs))
	for i, s := range specs {
		fmt.Fprintf(os.Stderr, "running %d-channel fleet under %s...\n", channels, labels[i])
		fr, err := report.RunFleetAppsMultiChannel(fleet, s, channels, opts)
		fail(err)
		mfrs[i] = fr
	}
	fmt.Println(report.RenderMultiChannelSummary(mfrs))

	if jsonOut != "" {
		out := os.Stdout
		if jsonOut != "-" {
			f, err := os.Create(jsonOut)
			fail(err)
			defer f.Close()
			out = f
		}
		fail(report.ExportMultiEvalJSON(out, mfrs))
		if jsonOut != "-" {
			fmt.Fprintf(os.Stderr, "wrote multi-channel evaluation JSON to %s\n", jsonOut)
		}
	}
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "smores-eval:", err)
		cpuprof.Exit(1)
	}
}
