// Command bench is the repository's benchmark: four named workloads run
// through the public runners, reporting end-to-end host time, memory and
// allocation as medians over a fixed number of timed passes, and (with
// -trace 1) a per-layer decomposition timed from outside each module.
// Every pass checks its simulated outputs; the last stdout line is the
// JSON result. See README.md.
//
// Usage, from the repository root:
//
//	bash bench/run.sh -workload table5-sweep -seed 1 -seconds 16 -trace 0
//	bash bench/run.sh -workload exact-link -trace 1 -spans spans.json
//	bash bench/run.sh -compare runs/a runs/b
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: table5-sweep, exact-link, multichannel-llc or store-replay")
	seed := fs.Uint64("seed", 1, "input seed; feeds the workload generators only")
	seconds := fs.Int("seconds", 16, "measuring budget in seconds; sets the pass count (never below 8)")
	trace := fs.Int("trace", 0, "1 adds the traced per-layer pass and reports per-layer metrics")
	spans := fs.String("spans", "", "with -trace 1, write the traced pass's spans to this file as a Chrome trace")
	compare := fs.Bool("compare", false, "compare two directories of saved run outputs: -compare DIR_A DIR_B")
	setupOnly := fs.Bool("setup-only", false, "set the workload up and exit (how set-up is timed in a fresh process)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare needs two directories")
			return 2
		}
		ok, err := compareRuns(fs.Arg(0), fs.Arg(1), "BENCHMARK.json", stdout)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		if !ok {
			return 1
		}
		return 0
	}
	def, err := lookupWorkload(*name)
	if err != nil || (*trace != 0 && *trace != 1) || *seconds < 1 {
		fmt.Fprintf(stderr, "bench: need -workload (%v), -trace 0|1 and -seconds ≥ 1\n", err)
		return 2
	}
	if *setupOnly {
		inst, err := def.setup(*seed, fullSize)
		if err == nil {
			err = inst.close()
		}
		if err != nil {
			fmt.Fprintln(stderr, "bench: set-up:", err)
			return 1
		}
		return 0
	}
	golden, err := parseGolden(goldenFull)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	cfg := runConfig{
		def:    def,
		sz:     fullSize,
		seed:   *seed,
		passes: max(minPasses, int(time.Duration(*seconds)*time.Second/def.nominalPass)),
		trace:  *trace == 1,
		spans:  *spans,
		golden: golden,
		setups: setupSamples,
	}
	res, err := measure(cfg, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// setupSamples is how many fresh processes time the set-up; setup_s is
// their median.
const setupSamples = 9

type runConfig struct {
	def    workloadDef
	sz     sizes
	seed   uint64
	passes int
	trace  bool
	spans  string    // Chrome trace output of the traced pass ("" for none)
	golden goldenSet // digests pinned for some seeds (nil pins none)
	// setups is the number of set-up processes timed; 0 times the
	// in-process set-up instead (the self-tests).
	setups int
}

// measure sets the workload up, runs the timed passes and checks, and
// (traced) the per-layer pass. It writes a human-readable report to log
// and returns the result line; an error means no result can be given.
func measure(cfg runConfig, log io.Writer) (result, error) {
	var setupS []float64
	start := time.Now()
	inst, err := cfg.def.setup(cfg.seed, cfg.sz)
	if err != nil {
		return result{}, fmt.Errorf("set-up: %w", err)
	}
	if cfg.setups == 0 {
		setupS = append(setupS, time.Since(start).Seconds())
	}
	res, err := measurePasses(cfg, inst, setupS, log)
	return res, errors.Join(err, inst.close())
}

func measurePasses(cfg runConfig, inst instance, setupS []float64, log io.Writer) (result, error) {
	fmt.Fprintf(log, "workload: %s\nseed: %d\npasses: %d of %d accesses\n", cfg.def.name, cfg.seed, cfg.passes, inst.accesses())
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(cfg.def.procs))
	var c checks
	var first passOutput
	var passSec, rate, bytesPer, allocsPer []float64
	if err := resetPeakRSS(); err != nil {
		return result{}, err
	}
	for i := 0; i < cfg.passes; i++ {
		// The set-up processes are spread over the run, between passes, so
		// their median spans the same host conditions as the passes do
		// rather than one moment before them.
		for !cfg.trace && len(setupS) < cfg.setups && len(setupS)*cfg.passes/cfg.setups == i {
			s, err := timeSetup(cfg.def.name, cfg.seed)
			if err != nil {
				return result{}, err
			}
			setupS = append(setupS, s)
		}
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		out, err := inst.pass(&c)
		dt := time.Since(t0)
		runtime.ReadMemStats(&m1)
		c.noError(err, fmt.Sprintf("pass %d", i))
		if err != nil {
			continue
		}
		if len(passSec) == 0 {
			first = out
		} else {
			c.expect(out.digest.equal(first.digest), "pass %d: digest differs from the first pass's", i)
		}
		acc := float64(inst.accesses())
		passSec = append(passSec, dt.Seconds())
		rate = append(rate, acc/dt.Seconds())
		bytesPer = append(bytesPer, float64(m1.TotalAlloc-m0.TotalAlloc)/acc)
		allocsPer = append(allocsPer, float64(m1.Mallocs-m0.Mallocs)/acc)
	}
	rss, err := peakRSSMiB()
	if err != nil {
		return result{}, err
	}
	if len(passSec) > 0 {
		inst.verify(first, &c)
		if want, ok := cfg.golden.lookup(cfg.seed, cfg.def.name); ok {
			c.expect(first.digest.equal(want), "digest differs from the golden digest of seed %d", cfg.seed)
		}
	}
	samples := map[string][]float64{
		"accesses_per_s":         rate,
		"setup_s":                setupS,
		"peak_rss_mib":           {rss},
		"alloc_bytes_per_access": bytesPer,
		"allocs_per_access":      allocsPer,
	}
	reported := make(map[string]float64)
	for _, d := range endToEnd {
		reported[d.name] = summarize(samples[d.name]).median
	}
	// Other tenants of a shared host only ever slow a pass, in bursts that
	// can cover half a run, so throughput is the fastest pass's. On the
	// 2-core reference host that cut the spread of store-replay over ten
	// seeds from 17% (median pass) to 4%.
	if len(rate) > 0 {
		reported["accesses_per_s"] = slices.Max(rate)
	}
	fmt.Fprintf(log, "pass seconds: %.4g\n", passSec)
	printSummaries(log, endToEnd, reported, samples)
	values, defs := reported, endToEnd
	if cfg.trace {
		defs = perLayer
		var err error
		if values, err = tracedPass(cfg, inst, first, passSec, &c); err != nil {
			return result{}, err
		}
		fmt.Fprintf(log, "\n%-42s %14s  %s\n", "layer metric", "value", "unit")
		for _, d := range perLayer {
			fmt.Fprintf(log, "%-42s %14.6g  %s\n", d.name, values[d.name], d.unit)
		}
	}
	for _, n := range c.notes {
		fmt.Fprintln(log, "check failed:", n)
	}
	fmt.Fprintf(log, "checks: %d attempted, %d failed\n", c.attempted, c.failed)
	res := result{Correct: c.failed == 0, Attempted: c.attempted, Failed: c.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		res.Metrics[d.name] = metricValue{Value: values[d.name], Unit: d.unit}
	}
	return res, nil
}

// tracedPass decomposes one more pass layer by layer; passSec are the
// untraced passes' wall times.
func tracedPass(cfg runConfig, inst instance, first passOutput, passSec []float64, c *checks) (map[string]float64, error) {
	if len(first.fleets) == 0 && len(first.multi.Results) == 0 {
		c.expect(false, "traced pass skipped: no end-to-end pass succeeded")
		return map[string]float64{}, nil
	}
	tr := newTracer()
	d := newDecomposer(tr, c, inst.accesses())
	runtime.GC()
	d.root = tr.open("pass", 0, attrs{})
	err := inst.decompose(d, first)
	tr.close(d.root)
	c.noError(err, "traced pass")
	values := d.l.metrics(time.Duration(slices.Min(passSec) * float64(time.Second)))
	if err := probeOffPath(cfg, tr, c, values); err != nil {
		return nil, err
	}
	if cfg.spans != "" {
		if err := tr.writeChrome(cfg.spans); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
	}
	return values, nil
}

// probeOffPath fills in the layer metrics of layers the workload's pass
// never runs (no LLC in table5-sweep, no trace store in exact-link, ...)
// from one-app runs of the other workloads at their full per-app size,
// decomposed the same way under "probe" spans. Such a value measures the
// layer, not this workload: only the workloads README.md names for a layer
// carry its cost into their end-to-end metrics.
func probeOffPath(cfg runConfig, tr *tracer, c *checks, values map[string]float64) error {
	missing := func() []string {
		var names []string
		for _, m := range perLayer {
			if _, ok := values[m.name]; !ok {
				names = append(names, m.name)
			}
		}
		return names
	}
	for _, def := range workloads {
		if def.name == cfg.def.name || len(missing()) == 0 {
			continue
		}
		sz := fullSize
		sz.apps = 1
		inst, err := def.setup(cfg.seed, sz)
		if err != nil {
			return fmt.Errorf("probe %s: set-up: %w", def.name, err)
		}
		got, err := probe(def.name, inst, tr, c)
		if err = errors.Join(err, inst.close()); err != nil {
			return fmt.Errorf("probe %s: %w", def.name, err)
		}
		for k, v := range got {
			if _, ok := values[k]; !ok {
				values[k] = v
			}
		}
	}
	for _, name := range missing() {
		c.expect(false, "no workload measured %s", name)
		values[name] = 0
	}
	return nil
}

// probe runs one pass of the set-up workload name and decomposes it.
func probe(name string, inst instance, tr *tracer, c *checks) (map[string]float64, error) {
	out, err := inst.pass(c)
	if err != nil {
		return nil, err
	}
	d := newDecomposer(tr, c, inst.accesses())
	d.root = tr.open("probe "+name, 0, attrs{})
	err = inst.decompose(d, out)
	tr.close(d.root)
	return d.l.metrics(0), err
}

// timeSetup times a fresh process that sets the workload up and exits:
// set-up as a user pays it, with cold caches and process start.
func timeSetup(name string, seed uint64) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, "-workload", name, "-seed", strconv.FormatUint(seed, 10), "-setup-only")
	cmd.Stderr = os.Stderr
	start := time.Now()
	if err := cmd.Run(); err != nil {
		return 0, fmt.Errorf("set-up process: %w", err)
	}
	return time.Since(start).Seconds(), nil
}

// resetPeakRSS restarts the kernel's resident-set high-water mark at the
// current resident set (Linux), so the reported peak covers the timed
// passes and not the set-up, which setup_s accounts for.
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("resetting the peak resident set: %w", err)
	}
	return nil
}

// peakRSSMiB reads the resident-set high-water mark (VmHWM) since the
// last reset.
func peakRSSMiB() (float64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kib, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", v, err)
			}
			return kib / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
