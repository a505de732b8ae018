package report

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"smores/internal/floats"
)

// TestBenchDeterministicEnergy runs the bench matrix twice at small
// scale and demands bit-identical energy rows — the property the
// cross-host regression gate rests on.
func TestBenchDeterministicEnergy(t *testing.T) {
	cfg := BenchConfig{Accesses: 400, Seed: 9, Workers: 2}
	a, err := RunBench(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunBench(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Schemes) != 5 || a.Apps == 0 {
		t.Fatalf("bench shape wrong: %d schemes, %d apps", len(a.Schemes), a.Apps)
	}
	for i := range a.Schemes {
		if a.Schemes[i].EnergyPJPerBit != b.Schemes[i].EnergyPJPerBit {
			t.Errorf("%s: energy not deterministic: %v vs %v",
				a.Schemes[i].Label, a.Schemes[i].EnergyPJPerBit, b.Schemes[i].EnergyPJPerBit)
		}
		if a.Schemes[i].EnergyPJPerBit <= 0 {
			t.Errorf("%s: no energy recorded", a.Schemes[i].Label)
		}
	}
	// The ladder the paper establishes must hold even at small scale:
	// every SMOREs scheme beats the baseline.
	for _, s := range a.Schemes[2:] {
		if s.SavingPct <= 0 {
			t.Errorf("%s: expected positive saving vs baseline, got %.2f%%", s.Label, s.SavingPct)
		}
	}
}

// TestBenchRoundTrip exercises the full gate loop: write a report,
// read it back, compare it against itself — 0 regressions.
func TestBenchRoundTrip(t *testing.T) {
	rep, err := RunBench(BenchConfig{Accesses: 300, Seed: 5, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "BENCH_test.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteBench(f, rep); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBench(path)
	if err != nil {
		t.Fatal(err)
	}
	cmp, err := CompareBench(got, rep, 0.30)
	if err != nil {
		t.Fatal(err)
	}
	if len(cmp.Regressions) != 0 {
		t.Errorf("self-comparison regressed: %v", cmp.Regressions)
	}

	// Every committed trajectory point still loads, including rows this
	// binary no longer writes, and any that ran the baseline's traffic
	// holds its energies bit for bit.
	paths, err := filepath.Glob("../../BENCH_*.json")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no committed BENCH_*.json found (err %v)", err)
	}
	base, err := ReadBench("../../BENCH_baseline.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range paths {
		committed, err := ReadBench(path)
		if err != nil {
			t.Errorf("%s: %v", path, err)
			continue
		}
		if len(committed.Schemes) != len(base.Schemes) || committed.Apps == 0 {
			t.Errorf("%s: %d schemes over %d apps", path, len(committed.Schemes), committed.Apps)
			continue
		}
		if committed.Accesses != base.Accesses || committed.Seed != base.Seed || committed.Apps != base.Apps {
			continue
		}
		for i, b := range base.Schemes {
			c := committed.Schemes[i]
			if c.Label != b.Label || !floats.Eq(c.EnergyPJPerBit, b.EnergyPJPerBit) {
				t.Errorf("%s: %s at %v pJ/bit, baseline %s at %v", path, c.Label, c.EnergyPJPerBit, b.Label, b.EnergyPJPerBit)
			}
		}
	}
}

// TestCompareBenchGates pins the gate semantics: energy must match bit
// for bit, either way, on the same traffic; perf regressions fire only
// on matching host fingerprints.
func TestCompareBenchGates(t *testing.T) {
	base := BenchReport{
		Version: BenchVersion, Accesses: 100, Seed: 1, Apps: 2, Workers: 1,
		Host: BenchHost{Hostname: "a", OS: "linux", Arch: "amd64", CPUs: 4},
		Schemes: []BenchScheme{
			{Label: "x", EnergyPJPerBit: 1.0, WallSeconds: 1.0, Allocs: 1000},
		},
	}
	cur := base
	cur.Schemes = []BenchScheme{base.Schemes[0]}
	if cmp, err := CompareBench(base, cur, 0.30); err != nil || len(cmp.Regressions) != 0 {
		t.Fatalf("identical reports: %v, %v", cmp.Regressions, err)
	}

	// One ulp in either direction is a regression: energies are
	// deterministic, so any change is a model change.
	for _, e := range []float64{math.Nextafter(1, 2), math.Nextafter(1, 0)} {
		cur.Schemes[0].EnergyPJPerBit = e
		cmp, err := CompareBench(base, cur, 0.30)
		if err != nil {
			t.Fatal(err)
		}
		if len(cmp.Regressions) != 1 || !strings.Contains(cmp.Regressions[0], "energy") {
			t.Errorf("energy %v against 1 must regress: %v", e, cmp.Regressions)
		}
	}

	// Different traffic cannot be compared at all.
	for _, mut := range []func(*BenchReport){
		func(r *BenchReport) { r.Accesses++ },
		func(r *BenchReport) { r.Seed++ },
		func(r *BenchReport) { r.Apps++ },
	} {
		other := base
		mut(&other)
		if _, err := CompareBench(base, other, 0.30); err == nil {
			t.Errorf("traffic mismatch (%d/%d/%d) must error", other.Accesses, other.Seed, other.Apps)
		}
	}

	// Wall-time blowup on the same host: regress.
	cur.Schemes[0] = BenchScheme{Label: "x", EnergyPJPerBit: 1.0, WallSeconds: 2.0, Allocs: 1000}
	if cmp, _ := CompareBench(base, cur, 0.30); len(cmp.Regressions) != 1 {
		t.Errorf("2x wall time on same host must regress: %v", cmp.Regressions)
	}

	// Same blowup across hosts: skipped with a note.
	cur.Host.Hostname = "b"
	cmp, _ := CompareBench(base, cur, 0.30)
	if len(cmp.Regressions) != 0 {
		t.Errorf("cross-host wall time must be skipped: %v", cmp.Regressions)
	}
	if len(cmp.Notes) == 0 {
		t.Error("cross-host comparison must note the skipped checks")
	}

	// Label drift is always a regression.
	cur = base
	cur.Schemes = []BenchScheme{{Label: "y", EnergyPJPerBit: 1.0}}
	if cmp, _ = CompareBench(base, cur, 0.30); len(cmp.Regressions) != 1 {
		t.Errorf("label drift must regress: %v", cmp.Regressions)
	}

	// Scheme-count drift is a hard error.
	cur.Schemes = nil
	if _, err := CompareBench(base, cur, 0.30); err == nil {
		t.Error("scheme count mismatch must error")
	}
}

func TestParseTolerance(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want float64
		ok   bool
	}{
		{"5%", 0.05, true},
		{"0.05", 0.05, true},
		{" 30% ", 0.30, true},
		{"0", 0, true},
		{"0%", 0, true},
		// Both edges of [0,1] are inclusive: "100%" disables a gate.
		{"100%", 1, true},
		{"1", 1, true},
		{"1.0", 1, true},
		{"100.0001%", 0, false},
		{"105%", 0, false},
		{"-1%", 0, false},
		{"-0.0001", 0, false},
		{"zap", 0, false},
	} {
		got, err := ParseTolerance(tc.in)
		if tc.ok != (err == nil) {
			t.Errorf("ParseTolerance(%q) err = %v, ok want %v", tc.in, err, tc.ok)
			continue
		}
		if tc.ok && got != tc.want {
			t.Errorf("ParseTolerance(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

// TestReadBenchRejectsSchema guards the version check.
func TestReadBenchRejectsSchema(t *testing.T) {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(BenchReport{Version: BenchVersion + 1}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadBench(path); err == nil {
		t.Error("future schema version must be rejected")
	}
	if _, err := ReadBench(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing file must be rejected")
	}
}

// TestRenderBench sanity-checks the table output.
func TestRenderBench(t *testing.T) {
	rep, err := RunBench(BenchConfig{Accesses: 200, Seed: 2, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	text := RenderBench(rep)
	for _, want := range []string{"smores-bench", "pJ/bit", "saving", rep.Schemes[0].Label} {
		if !strings.Contains(text, want) {
			t.Errorf("rendered bench missing %q:\n%s", want, text)
		}
	}
}
