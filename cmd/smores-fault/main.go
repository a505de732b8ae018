// Command smores-fault runs Monte Carlo link-reliability campaigns:
// it sweeps symbol-error rate × encoding scheme × error model × EDC
// layer over real workloads and reports, per campaign point, each
// detection layer's coverage share (transition legality, codebook
// membership, CRC-8), the silent-corruption rate, and the EDC replay
// cost in clocks and fJ/bit. Same seed ⇒ byte-identical JSON; every
// point's layered accounting is conservation-checked (corrupted =
// legality + codebook + EDC + silent) before anything is printed.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"smores/internal/core"
	"smores/internal/cpuprof"
	"smores/internal/fault"
	"smores/internal/memctrl"
	"smores/internal/report"
	"smores/internal/workload"
)

func main() {
	var (
		rates    = flag.String("rates", "1e-4,1e-3,1e-2", "comma-separated symbol error rates to sweep")
		models   = flag.String("models", "uniform", "comma-separated error models: uniform, eye, bursty")
		edcMode  = flag.String("edc", "both", "CRC-8 layer sweep: off, on, or both")
		schemes  = flag.String("schemes", "default", "encoding coordinates: default (MTA + variable SMOREs) or all (the 5-policy evaluation matrix)")
		apps     = flag.Int("apps", 4, "fleet applications sampled per point (spread across the 42-app fleet)")
		accesses = flag.Int64("accesses", 8000, "per-app workload length")
		seed     = flag.Uint64("seed", 1, "deterministic seed (traffic and error processes)")
		workers  = flag.Int("j", 0, "concurrent simulations (0 = GOMAXPROCS)")
		burstLen = flag.Float64("burst-len", 0, "bursty model's mean error-burst length in symbol columns (0 = model default)")
		retries  = flag.Int("retries", 0, "EDC replay retry budget (0 = default 3)")
		degrade  = flag.Float64("degrade", 0, "detected-rate threshold for graceful degradation to MTA-only (0 disables)")
		jsonOut  = flag.String("json", "", "write the machine-readable campaign to this file ('-' for stdout)")
		gate     = flag.Bool("gate-silent", false, "exit 1 if any EDC-enabled point recorded silent corruption")
		cpuProf  = cpuprof.Flag()
	)
	flag.Parse()
	fail(cpuprof.Start(*cpuProf))
	defer cpuprof.Stop()

	spec := report.CampaignSpec{
		Accesses: *accesses,
		Seed:     *seed,
		Workers:  *workers,
		BurstLen: *burstLen,
		Replay:   memctrl.ReplayConfig{RetryBudget: *retries, DegradeThreshold: *degrade},
	}

	for _, f := range strings.Split(*rates, ",") {
		r, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		fail(err)
		spec.Rates = append(spec.Rates, r)
	}
	for _, name := range strings.Split(*models, ",") {
		m, err := fault.ParseModel(strings.TrimSpace(name))
		fail(err)
		spec.Models = append(spec.Models, m)
	}
	switch *edcMode {
	case "off":
		spec.EDC = []bool{false}
	case "on":
		spec.EDC = []bool{true}
	case "both":
		spec.EDC = []bool{false, true}
	default:
		fail(fmt.Errorf("smores-fault: -edc must be off, on, or both (got %q)", *edcMode))
	}
	switch *schemes {
	case "default":
		// CampaignSpec default: MTA baseline + exhaustive variable SMOREs.
	case "all":
		spec.Schemes = []report.CampaignScheme{
			{Policy: memctrl.BaselineMTA},
			{Policy: memctrl.OptimizedMTA},
			{Policy: memctrl.SMOREs, Scheme: core.Scheme{Specification: core.VariableCode, Detection: core.Exhaustive}},
			{Policy: memctrl.SMOREs, Scheme: core.Scheme{Specification: core.StaticCode, Detection: core.Exhaustive}},
			{Policy: memctrl.SMOREs, Scheme: core.Scheme{Specification: core.StaticCode, Detection: core.Conservative}},
		}
	default:
		fail(fmt.Errorf("smores-fault: -schemes must be default or all (got %q)", *schemes))
	}
	if *apps > 0 {
		fleet := workload.Fleet()
		n := *apps
		if n > len(fleet) {
			n = len(fleet)
		}
		for i := 0; i < n; i++ {
			spec.Apps = append(spec.Apps, fleet[i*len(fleet)/n])
		}
	}

	cr, err := report.RunCampaign(spec)
	fail(err)
	fmt.Print(report.RenderCampaign(cr))

	if *jsonOut != "" {
		var w io.Writer = os.Stdout
		if *jsonOut != "-" {
			f, err := os.Create(*jsonOut)
			fail(err)
			defer f.Close()
			w = f
		}
		fail(report.ExportCampaignJSON(w, cr))
	}

	if *gate {
		bad := 0
		for _, p := range cr.Points {
			if p.EDC && p.Fault.Silent > 0 {
				fmt.Fprintf(os.Stderr, "smores-fault: GATE: %s %s rate=%g edc=on: %d silent corruptions (%d harmless)\n",
					p.Label, p.ModelName, p.Rate, p.Fault.Silent, p.Fault.Harmless)
				bad++
			}
		}
		if bad > 0 {
			cpuprof.Exit(1)
		}
		fmt.Fprintln(os.Stderr, "smores-fault: gate passed: zero silent corruptions on every EDC-enabled point")
	}
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		cpuprof.Exit(1)
	}
}
