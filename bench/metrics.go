package main

import (
	"fmt"
	"io"
	"sort"
)

// metricDef names one reported metric. The catalogue below must match
// BENCHMARK.json name for name, unit for unit and direction for direction
// (bench_test.go enforces it); the regression bounds live only in
// BENCHMARK.json, which -compare reads.
type metricDef struct {
	name   string
	unit   string
	higher bool // higher is better
}

// endToEnd are the metrics a user of the simulator sees, reported by every
// untraced run.
var endToEnd = []metricDef{
	{"accesses_per_s", "accesses/s", true},
	{"setup_s", "s", false},
	{"peak_rss_mib", "MiB", false},
	{"alloc_bytes_per_access", "B", false},
	{"allocs_per_access", "count", false},
}

// perLayer are the traced run's per-module numbers. A layer a workload
// never executes reports 0.
var perLayer = []metricDef{
	{"workload.gen_ns_per_access", "ns", false},
	{"tracestore.open_us_per_store", "us", false},
	{"tracestore.decode_ns_per_record", "ns", false},
	{"tracestore.decode_alloc_bytes_per_record", "B", false},
	{"tracestore.bytes_read_per_record", "B", false},
	{"tracestore.pack_ns_per_record", "ns", false},
	{"gpu.llc_ns_per_access", "ns", false},
	{"gpu.llc_hit_ratio", "ratio", true},
	{"shard.plan_self_ns_per_access", "ns", false},
	{"shard.unit_ms_p50", "ms", false},
	{"shard.unit_ms_max", "ms", false},
	{"shard.pool_idle_ratio", "ratio", false},
	{"memctrl.construct_us", "us", false},
	{"memctrl.construct_alloc_bytes", "B", false},
	{"memctrl.self_ns_per_access", "ns", false},
	{"memctrl.run_alloc_bytes_per_access", "B", false},
	{"memctrl.host_ns_per_sim_clock", "ns", false},
	{"bus.expected_ns_per_burst", "ns", false},
	{"bus.exact_self_ns_per_burst", "ns", false},
	{"core.sparse_encode_ns_per_burst", "ns", false},
	{"mta.encode_ns_per_beat", "ns", false},
	{"bus.bursts_per_access", "count", false},
	{"obs.profile_exact_ns_per_burst", "ns", false},
	{"obs.profile_expected_ns_per_burst", "ns", false},
	{"fault.hook_ns_per_burst", "ns", false},
	{"fault.replay_ratio", "ratio", false},
	{"trace.coverage", "ratio", true},
}

// metricValue is one entry of the result line's metrics object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the run's last stdout line, the benchmark's contract with
// whoever runs it.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// summary is a sample's median and quartiles.
type summary struct {
	p25, median, p75 float64
	n                int
}

// summarize computes the median and the quartiles the way Python's
// statistics.quantiles(xs, n=4) does (the "exclusive" method), so the
// spreads this program prints are the ones an external check computes.
func summarize(xs []float64) summary {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return summary{}
	case 1:
		return summary{p25: s[0], median: s[0], p75: s[0], n: 1}
	}
	quartile := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	med := s[n/2]
	if n%2 == 0 {
		med = (s[n/2-1] + s[n/2]) / 2
	}
	return summary{p25: quartile(1), median: med, p75: quartile(3), n: n}
}

// printSummaries writes the human-readable table: each metric's reported
// value beside the median, quartiles and count of its samples.
func printSummaries(w io.Writer, defs []metricDef, reported map[string]float64, samples map[string][]float64) {
	fmt.Fprintf(w, "%-24s %14s %14s %14s %14s %4s  %s\n", "metric", "reported", "median", "p25", "p75", "n", "unit")
	for _, d := range defs {
		s := summarize(samples[d.name])
		fmt.Fprintf(w, "%-24s %14.6g %14.6g %14.6g %14.6g %4d  %s\n", d.name, reported[d.name], s.median, s.p25, s.p75, s.n, d.unit)
	}
}
