package main

import (
	"encoding/json"
	"flag"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"smores/internal/floats"
)

var update = flag.Bool("update", false, "regenerate testdata/golden-*.json (the full-size digests take about a minute)")

const (
	goldenTinyPath = "testdata/golden-tiny.json"
	goldenFullPath = "testdata/golden-full.json"
)

var goldenSeeds = []uint64{1, 2, 3}

// passDigest sets a workload up and returns one pass's digest.
func passDigest(t *testing.T, def workloadDef, seed uint64, sz sizes) digest {
	t.Helper()
	inst, err := def.setup(seed, sz)
	if err != nil {
		t.Fatalf("%s seed %d: set-up: %v", def.name, seed, err)
	}
	defer inst.close()
	var c checks
	out, err := inst.pass(&c)
	if err != nil || c.failed != 0 {
		t.Fatalf("%s seed %d: pass: %v %v", def.name, seed, err, c.notes)
	}
	return out.digest
}

// TestUpdateGolden regenerates the golden digests under -update. It runs
// first, so the tests below check the files it writes.
func TestUpdateGolden(t *testing.T) {
	if !*update {
		t.Skip("run with -update to regenerate the golden digests")
	}
	for _, g := range []struct {
		path string
		sz   sizes
	}{{goldenTinyPath, tinySize}, {goldenFullPath, fullSize}} {
		set := goldenSet{}
		for _, seed := range goldenSeeds {
			key := strconv.FormatUint(seed, 10)
			set[key] = map[string]digest{}
			for _, def := range workloads {
				set[key][def.name] = passDigest(t, def, seed, g.sz)
			}
		}
		data, err := json.MarshalIndent(set, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(g.path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func readGolden(t *testing.T, path string) goldenSet {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	g, err := parseGolden(data)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func catalogNames(defs []metricDef) []string {
	var names []string
	for _, d := range defs {
		names = append(names, d.name)
	}
	sort.Strings(names)
	return names
}

// TestWorkloadsTiny runs every workload at tiny size: seeds 1–3 must pass
// every output check including the tiny golden digests, and a traced run
// must pass its cross-checks. Each run must print exactly its catalogue.
func TestWorkloadsTiny(t *testing.T) {
	golden := readGolden(t, goldenTinyPath)
	for _, def := range workloads {
		for _, seed := range goldenSeeds {
			if _, ok := golden.lookup(seed, def.name); !ok {
				t.Fatalf("no tiny golden digest for %s seed %d", def.name, seed)
			}
			trace := seed == 1
			res, err := measure(runConfig{def: def, sz: tinySize, seed: seed, passes: 2, trace: trace, golden: golden}, io.Discard)
			if err != nil {
				t.Fatalf("%s seed %d: %v", def.name, seed, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				var log strings.Builder
				measure(runConfig{def: def, sz: tinySize, seed: seed, passes: 2, trace: trace, golden: golden}, &log)
				t.Fatalf("%s seed %d: %d of %d checks failed:\n%s", def.name, seed, res.Failed, res.Attempted, log.String())
			}
			want := catalogNames(endToEnd)
			if trace {
				want = catalogNames(perLayer)
			}
			if got := sortedKeys(res.Metrics); strings.Join(got, ",") != strings.Join(want, ",") {
				t.Errorf("%s trace=%v printed metrics %v, want %v", def.name, trace, got, want)
			}
			if trace && res.Metrics["trace.coverage"].Value <= 0 {
				t.Errorf("%s: trace coverage %v", def.name, res.Metrics["trace.coverage"].Value)
			}
		}
	}
}

// TestCatalogMatchesBenchmarkJSON pins the printed catalogue to
// BENCHMARK.json: the same workloads, and the same metric names, units and
// directions in both directions.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		benchmarkSpec
		Workloads []struct{ Name string } `json:"workloads"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var defs []string
	for _, w := range workloads {
		defs = append(defs, w.name)
	}
	if strings.Join(names, ",") != strings.Join(defs, ",") {
		t.Errorf("BENCHMARK.json workloads %v, the benchmark runs %v", names, defs)
	}
	for _, c := range []struct {
		what string
		json []specMetric
		defs []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		got := map[string]string{}
		for _, m := range c.json {
			got[m.Name] = m.Unit + "/" + m.Better
		}
		want := map[string]string{}
		for _, d := range c.defs {
			better := "lower"
			if d.higher {
				better = "higher"
			}
			want[d.name] = d.unit + "/" + better
		}
		for _, n := range sortedKeys(want) {
			if got[n] != want[n] {
				t.Errorf("%s %s: BENCHMARK.json has %q, the benchmark prints %q", c.what, n, got[n], want[n])
			}
		}
		for _, n := range sortedKeys(got) {
			if _, ok := want[n]; !ok {
				t.Errorf("%s %s is in BENCHMARK.json but never printed", c.what, n)
			}
		}
	}
}

// TestMultiChannelWorkerInvariance: the sharded engine's digest must not
// depend on the pool size.
func TestMultiChannelWorkerInvariance(t *testing.T) {
	var digests []digest
	for _, workers := range []int{1, 2} {
		w, err := newMulti(1, tinySize, workers)
		if err != nil {
			t.Fatal(err)
		}
		var c checks
		out, err := w.pass(&c)
		if err != nil || c.failed != 0 {
			t.Fatalf("workers=%d: %v %v", workers, err, c.notes)
		}
		digests = append(digests, out.digest)
	}
	if !digests[0].equal(digests[1]) {
		t.Errorf("digest at 1 worker %+v differs from 2 workers %+v", digests[0], digests[1])
	}
}

// TestGoldenMatchesBenchTrajectory: seed 1's table5-sweep energies are the
// five scheme energies of the committed BENCH_2026-08-07.json, bit for bit.
func TestGoldenMatchesBenchTrajectory(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCH_2026-08-07.json"))
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Accesses int64 `json:"accesses"`
		Seed     uint64
		Schemes  []struct {
			Label  string  `json:"label"`
			Energy float64 `json:"energy_pj_per_bit"`
		} `json:"schemes"`
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Accesses != fullSize.sweepAccesses || rep.Seed != 1 {
		t.Fatalf("trajectory point ran %d accesses at seed %d", rep.Accesses, rep.Seed)
	}
	d, ok := readGolden(t, goldenFullPath).lookup(1, "table5-sweep")
	if !ok || len(d.Policies) != len(rep.Schemes) {
		t.Fatalf("golden table5-sweep seed 1 has %d policies, trajectory %d", len(d.Policies), len(rep.Schemes))
	}
	for i, s := range rep.Schemes {
		p := d.Policies[i]
		if p.Label != s.Label || !floats.Eq(p.PJPerBit, s.Energy) ||
			p.Bits != "0x"+strconv.FormatUint(math.Float64bits(s.Energy), 16) {
			t.Errorf("policy %d: golden %s %v (%s), trajectory %s %v", i, p.Label, p.PJPerBit, p.Bits, s.Label, s.Energy)
		}
	}
}

// TestQuartilesMatchPython: statistics.quantiles(range(1, 11), n=4) is
// [2.75, 5.5, 8.25].
func TestQuartilesMatchPython(t *testing.T) {
	s := summarize([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if !floats.Eq(s.p25, 2.75) || !floats.Eq(s.median, 5.5) || !floats.Eq(s.p75, 8.25) || s.n != 10 {
		t.Errorf("got %+v", s)
	}
}

// TestCompareFlagsRegressions: -compare reads saved outputs and fails only
// when a bounded metric got worse by more than its bound.
func TestCompareFlagsRegressions(t *testing.T) {
	write := func(dir string, rate float64) {
		for i := 0; i < 3; i++ {
			res := result{Correct: true, Attempted: 1, Metrics: map[string]metricValue{
				"accesses_per_s": {Value: rate + float64(i), Unit: "accesses/s"},
			}}
			line, _ := json.Marshal(res)
			body := "workload: table5-sweep\n" + string(line) + "\n"
			if err := os.WriteFile(filepath.Join(dir, strconv.Itoa(i)+".out"), []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	spec := filepath.Join("..", "BENCHMARK.json")
	base, same, slow := t.TempDir(), t.TempDir(), t.TempDir()
	write(base, 1000)
	write(same, 1001)
	write(slow, 500)
	if ok, err := compareRuns(base, same, spec, io.Discard); err != nil || !ok {
		t.Errorf("same code compared as a regression: %v %v", ok, err)
	}
	var out strings.Builder
	if ok, err := compareRuns(base, slow, spec, &out); err != nil || ok {
		t.Errorf("halved throughput not flagged: %v %v", ok, err)
	}
	if !strings.Contains(out.String(), "WORSE") {
		t.Errorf("compare output lacks the verdict:\n%s", out.String())
	}
}
