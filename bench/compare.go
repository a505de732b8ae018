package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"smores/internal/floats"
)

// benchmarkSpec is the part of BENCHMARK.json -compare reads.
type benchmarkSpec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func loadBenchmarkSpec(path string) (benchmarkSpec, error) {
	var spec benchmarkSpec
	data, err := os.ReadFile(path)
	if err != nil {
		return spec, err
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return spec, fmt.Errorf("%s: %w", path, err)
	}
	return spec, nil
}

// runSet maps workload → metric → one value per saved run.
type runSet map[string]map[string][]float64

// loadRuns reads every file in dir as one run's captured stdout: the
// "workload:" line names the workload and the last line is the result.
func loadRuns(dir string) (runSet, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	set := runSet{}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		name, res, err := parseRun(data)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", filepath.Join(dir, e.Name()), err)
		}
		if set[name] == nil {
			set[name] = map[string][]float64{}
		}
		for _, m := range sortedKeys(res.Metrics) {
			set[name][m] = append(set[name][m], res.Metrics[m].Value)
		}
	}
	return set, nil
}

func parseRun(data []byte) (string, result, error) {
	var name, last string
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if w, ok := strings.CutPrefix(line, "workload: "); ok {
			name = w
		}
		if line != "" {
			last = line
		}
	}
	if err := sc.Err(); err != nil {
		return "", result{}, err
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return "", result{}, fmt.Errorf("last line is not a result: %w", err)
	}
	if name == "" {
		return "", result{}, fmt.Errorf("no workload line")
	}
	return name, res, nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// compareRuns prints, for every (workload, metric) both sets report, each
// set's median, quartiles and run count, and whether B's median stays
// within the bound BENCHMARK.json fixes of A's. It reports false when any
// bounded metric got worse by more than its bound.
func compareRuns(dirA, dirB, specPath string, w io.Writer) (bool, error) {
	spec, err := loadBenchmarkSpec(specPath)
	if err != nil {
		return false, err
	}
	a, err := loadRuns(dirA)
	if err != nil {
		return false, err
	}
	b, err := loadRuns(dirB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "%-17s %-40s %12s %12s %12s %3s %12s %12s %12s %3s %8s %7s %7s %7s  %s\n",
		"workload", "metric", "A median", "A p25", "A p75", "n", "B median", "B p25", "B p75", "n",
		"B/A-1", "spreadA", "spreadB", "bound", "verdict")
	ok := true
	var pairs, outside int
	for _, def := range workloads {
		for _, m := range append(append([]specMetric(nil), spec.EndToEnd...), spec.PerLayer...) {
			xa, xb := a[def.name][m.Name], b[def.name][m.Name]
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			sa, sb := summarize(xa), summarize(xb)
			rel := sb.median/sa.median - 1
			verdict, bound := "-", "-"
			if m.Bound != nil {
				pairs++
				bound = fmt.Sprintf("%.1f%%", *m.Bound*100)
				worse := rel
				if m.Better == "higher" {
					worse = -rel
				}
				switch {
				case worse > *m.Bound:
					verdict = "WORSE"
					ok = false
					outside++
				case -worse > *m.Bound:
					verdict = "better"
					outside++
				default:
					verdict = "within"
				}
			}
			fmt.Fprintf(w, "%-17s %-40s %12.6g %12.6g %12.6g %3d %12.6g %12.6g %12.6g %3d %+7.2f%% %6.2f%% %6.2f%% %7s  %s\n",
				def.name, m.Name, sa.median, sa.p25, sa.p75, sa.n, sb.median, sb.p25, sb.p75, sb.n,
				rel*100, spread(sa)*100, spread(sb)*100, bound, verdict)
		}
	}
	fmt.Fprintf(w, "%d of %d bounded (workload, metric) pairs outside their bound\n", outside, pairs)
	return ok, nil
}

// spread is the interquartile range as a share of the median.
func spread(s summary) float64 {
	if floats.IsZero(s.median) {
		return math.NaN()
	}
	return (s.p75 - s.p25) / math.Abs(s.median)
}
