// Command smores-sim runs one workload end to end through the GPU
// memory-system simulator under a chosen encoding policy, printing
// energy, gap, and performance statistics. With -scenario it instead
// plays the paper's Figure 4 timing scenarios through the channel model.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"smores/internal/bus"
	"smores/internal/core"
	"smores/internal/cpuprof"
	"smores/internal/dbi"
	"smores/internal/eyesim"
	"smores/internal/memctrl"
	"smores/internal/mta"
	"smores/internal/obs"
	"smores/internal/pam4"
	"smores/internal/report"
	"smores/internal/rng"
	"smores/internal/workload"
)

func main() {
	var (
		app       = flag.String("app", "bfs", "workload name (see -list)")
		list      = flag.Bool("list", false, "list the 42 workloads and exit")
		policy    = flag.String("policy", "smores", "baseline | optimized | smores")
		spec      = flag.String("spec", "static", "static | variable (SMOREs code specification)")
		detect    = flag.String("detect", "exhaustive", "exhaustive | conservative (gap detection)")
		accesses  = flag.Int64("accesses", report.DefaultAccesses, "workload length in accesses")
		seed      = flag.Uint64("seed", 1, "deterministic seed")
		useLLC    = flag.Bool("llc", false, "interpose the 6MB sectored LLC")
		scenario  = flag.Bool("scenario", false, "play the Figure 4 timing scenarios instead")
		eye       = flag.Bool("eye", false, "run the signal-integrity (crosstalk/eye) analysis instead")
		channels  = flag.Int("channels", 1, "number of interleaved GDDR6X channels")
		shardJ    = flag.Int("j", 0, "with -channels >1: concurrent channel simulations (0 = GOMAXPROCS, 1 = sequential)")
		traceOut  = flag.String("trace", "", "write a Chrome trace-event JSON (load in Perfetto) to this file")
		traceCap  = flag.Int("trace-depth", obs.DefaultTraceCapacity, "ring-buffer capacity of the tracer (most recent events kept); each channel keeps its own ring while it runs, so tracing can hold up to channels × capacity events")
		foldedOut = flag.String("folded", "", "write the energy-attribution profile as folded stacks (flamegraph.pl input) to this file")
		cpuProf   = cpuprof.Flag()
	)
	flag.Parse()
	if *channels < 1 {
		fmt.Fprintf(os.Stderr, "smores-sim: -channels must be at least 1, got %d\n", *channels)
		flag.Usage()
		os.Exit(2)
	}
	fail(cpuprof.Start(*cpuProf))
	defer cpuprof.Stop()

	if *list {
		for _, p := range workload.Fleet() {
			fmt.Printf("%-16s %-10s burst=%.0f think=%.0f writes=%.0f%%\n",
				p.Name, p.Suite, p.BurstLen, p.ThinkMean, p.WriteFrac*100)
		}
		return
	}
	if *scenario {
		playScenarios()
		return
	}
	if *eye {
		analyzeEye()
		return
	}

	p, ok := workload.ByName(*app)
	if !ok {
		fail(fmt.Errorf("unknown app %q (try -list)", *app))
	}
	rs := report.RunSpec{Accesses: *accesses, Seed: *seed, Channels: *channels, UseLLC: *useLLC}

	// Observability: the energy-attribution profiler when -folded is set,
	// a cycle tracer when -trace is set. Both are nil otherwise, which
	// keeps the simulator's hot path on its uninstrumented branch.
	var prof *obs.Profile
	if *foldedOut != "" {
		prof = obs.NewProfile()
		rs.Profile = prof
	}
	var tracer *obs.Tracer
	if *traceOut != "" {
		tracer = obs.NewTracer(*traceCap)
		rs.Tracer = tracer
	}
	switch strings.ToLower(*policy) {
	case "baseline":
		rs.Policy = memctrl.BaselineMTA
	case "optimized":
		rs.Policy = memctrl.OptimizedMTA
	case "smores":
		rs.Policy = memctrl.SMOREs
		switch strings.ToLower(*spec) {
		case "static":
			rs.Scheme.Specification = core.StaticCode
		case "variable":
			rs.Scheme.Specification = core.VariableCode
		default:
			fail(fmt.Errorf("unknown -spec %q", *spec))
		}
		switch strings.ToLower(*detect) {
		case "exhaustive":
			rs.Scheme.Detection = core.Exhaustive
		case "conservative":
			rs.Scheme.Detection = core.Conservative
		default:
			fail(fmt.Errorf("unknown -detect %q", *detect))
		}
	default:
		fail(fmt.Errorf("unknown -policy %q", *policy))
	}

	// A one-app fleet runs the app with spec's seed and spreads its
	// channels over the -j pool.
	fr, err := report.RunFleetApps([]workload.Profile{p}, rs, report.FleetOptions{Workers: *shardJ})
	fail(err)
	r := fr.Results[0]
	if r.Channels > 1 {
		fmt.Printf("%s under %s over %d channels\n", p.Name, r.Label, r.Channels)
	} else {
		fmt.Printf("%s under %s\n", p.Name, r.Label)
	}
	fmt.Printf("  DRAM traffic:    %d reads, %d writes over %d clocks (%.2f B/clock)\n",
		r.Reads, r.Writes, r.Clocks, float64(r.Reads+r.Writes)*32/float64(r.Clocks))
	fmt.Printf("  energy:          %.1f fJ/bit (wire %.1f + postamble %.1f + logic %.1f)\n",
		r.PerBit,
		r.Bus.WireEnergy/r.Bus.DataBits,
		r.Bus.PostambleEnergy/r.Bus.DataBits,
		r.Bus.LogicEnergy/r.Bus.DataBits)
	fmt.Printf("  bursts:          %d MTA, %d sparse, %d postambles\n",
		r.Bus.MTABursts, r.Bus.SparseBursts, r.Bus.Postambles)
	fmt.Printf("  read gaps:       %v\n", r.ReadGaps)
	fmt.Printf("  write gaps:      %v\n", r.WriteGaps)
	fmt.Printf("  read latency:    %.1f clocks average\n", r.AvgReadLatency)
	fmt.Printf("  idle frequency:  %.2f\n", r.IdleFrequency)
	if r.Channels > 1 {
		fmt.Printf("  channel balance: %.3f (max/min bits)\n", r.ChannelBalance())
	}
	writeExports(tracer, *traceOut, prof, *foldedOut)
}

// writeExports writes the Chrome trace (when tracing) and the folded
// energy-attribution stacks (when profiling).
func writeExports(tracer *obs.Tracer, traceOut string, prof *obs.Profile, foldedOut string) {
	if tracer != nil {
		f, err := os.Create(traceOut)
		fail(err)
		fail(tracer.WriteChromeTrace(f))
		fail(f.Close())
		fmt.Fprintf(os.Stderr, "smores-sim: wrote %d trace events to %s (%d dropped by ring)\n",
			tracer.Len(), traceOut, tracer.Dropped())
	}
	if prof != nil {
		f, err := os.Create(foldedOut)
		fail(err)
		fail(obs.WriteProfileFolded(f, prof.Snapshot()))
		fail(f.Close())
		fmt.Fprintf(os.Stderr, "smores-sim: wrote folded energy stacks to %s (flamegraph.pl %s > energy.svg)\n",
			foldedOut, foldedOut)
	}
}

// playScenarios drives the channel model through the paper's Figure 4
// cases: (a) back-to-back reads, (b) a two-clock gap with postamble,
// (c) a gap exploited by a 4b4s code, (d) a one-clock gap exploited by
// the preferred 4b3s code.
func playScenarios() {
	r := rng.New(7)
	run := func(title string, f func(ch *bus.Channel, data []byte)) {
		ch := bus.New(bus.Config{ExactData: true})
		data := make([]byte, bus.BurstBytes)
		r.Fill(data)
		f(ch, data)
		st := ch.Stats()
		fmt.Printf("%-52s busy %2d UIs, %.1f fJ/bit, %d violations\n",
			title, st.BusyUIs, st.PerBit(), st.Violations)
	}
	run("Fig4a: two back-to-back MTA reads", func(ch *bus.Channel, data []byte) {
		must(ch.SendBurst(data, 0))
		must(ch.SendBurst(data, 0))
	})
	run("Fig4b: MTA read, 2-clock gap (postamble), MTA read", func(ch *bus.Channel, data []byte) {
		must(ch.SendBurst(data, 0))
		ch.Postamble()
		ch.Idle(4)
		must(ch.SendBurst(data, 0))
	})
	run("Fig4c: read stretched to 4b4s across a 2-clock gap", func(ch *bus.Channel, data []byte) {
		must(ch.SendBurst(data, 4))
		must(ch.SendBurst(data, 0))
	})
	run("Fig4d: read stretched to 4b3s across a 1-clock gap", func(ch *bus.Channel, data []byte) {
		must(ch.SendBurst(data, 3))
		must(ch.SendBurst(data, 0))
	})
}

// analyzeEye runs the first-order signal-integrity comparison behind the
// paper's §II motivation: worst-case victim eye under unconstrained PAM4
// versus MTA versus the 4b3s sparse code.
func analyzeEye() {
	a, err := eyesim.New(eyesim.DefaultConfig())
	fail(err)
	r := rng.New(11)
	m := pam4.DefaultEnergyModel()

	mk := func(name string, cols []mta.Column) {
		rep := a.Analyze(mta.IdleGroupState(), cols)
		fmt.Printf("%-12s max swing %dΔV | worst eye %6.1f mV | mean eye %6.1f mV | mean switch %5.1f mA\n",
			name, rep.MaxSwingDV, rep.WorstEyeMV, rep.MeanEyeMV, rep.MeanSwitchMA)
	}

	// Unconstrained PAM4.
	raw := dbi.NewPAM4Codec(false, m)
	data := make([]byte, 2*4000)
	r.Fill(data)
	rawCols, err := raw.EncodeGroupBurst(data)
	fail(err)
	mk("raw PAM4", rawCols)

	// MTA.
	mc := mta.New(m)
	st := mta.IdleGroupState()
	var mtaCols []mta.Column
	for i := 0; i < 1000; i++ {
		var beatData [mta.GroupDataWires]byte
		r.Fill(beatData[:])
		cols := mc.EncodeGroupColumns(beatData, &st)
		mtaCols = append(mtaCols, cols[:]...)
	}
	mk("MTA", mtaCols)

	// Sparse 4b3s.
	fam := core.DefaultFamily()
	st = mta.IdleGroupState()
	var spCols []mta.Column
	for i := 0; i < 500; i++ {
		chunk := make([]byte, 16)
		r.Fill(chunk)
		cols, err := fam.ByLength(3).EncodeGroupBurst(chunk, &st)
		fail(err)
		spCols = append(spCols, cols...)
	}
	mk("4b3s-3/DBI", spCols)

	fmt.Printf("\nclosed-form worst-case eye: 2ΔV cap %.1f mV vs 3ΔV %.1f mV (nominal 225)\n",
		a.WorstCaseAggressorEye(2), a.WorstCaseAggressorEye(3))
}

func must(err error) {
	if err != nil {
		fail(err)
	}
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "smores-sim:", err)
		cpuprof.Exit(1)
	}
}
