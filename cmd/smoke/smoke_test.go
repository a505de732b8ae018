// Package smoke black-box tests the command-line entry points: every
// main must parse its flags (-h exits 0, an unknown flag exits 2), and
// smores-bench must emit a well-formed JSON report on stdout and exit 1
// when gating against a baseline with an injected regression. The mains
// are built once per test run with the local toolchain.
package smoke

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"testing"
)

var mains = []string{
	"smores-bench",
	"smores-codebook",
	"smores-eval",
	"smores-fault",
	"smores-hwcost",
	"smores-lint",
	"smores-sim",
	"smores-trace",
	"smores-verilog",
}

// buildMains compiles every cmd/ binary into a shared temp dir once.
func buildMains(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	cmd := exec.Command("go", "build", "-o", dir+string(filepath.Separator), "smores/cmd/...")
	cmd.Env = append(os.Environ(), "GOFLAGS=-mod=mod")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building mains: %v\n%s", err, out)
	}
	return dir
}

func bin(dir, name string) string {
	if runtime.GOOS == "windows" {
		name += ".exe"
	}
	return filepath.Join(dir, name)
}

func TestMainsParseFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := buildMains(t)
	for _, name := range mains {
		name := name
		t.Run(name, func(t *testing.T) {
			// -h prints usage and exits 0.
			out, err := exec.Command(bin(dir, name), "-h").CombinedOutput()
			if err != nil {
				t.Errorf("%s -h: %v\n%s", name, err, out)
			}
			if !bytes.Contains(out, []byte("Usage")) && !bytes.Contains(out, []byte("-")) {
				t.Errorf("%s -h printed no usage:\n%s", name, out)
			}
			// An unknown flag is a parse error: exit code 2, never a crash.
			err = exec.Command(bin(dir, name), "-definitely-not-a-flag").Run()
			ee, ok := err.(*exec.ExitError)
			if !ok || ee.ExitCode() != 2 {
				t.Errorf("%s with bad flag: err=%v, want exit code 2", name, err)
			}
		})
	}
}

// benchReport mirrors the smores-bench JSON schema fields the smoke test
// relies on.
type benchReport struct {
	Version int    `json:"version"`
	Date    string `json:"date"`
	Host    struct {
		Hostname string `json:"hostname"`
		OS       string `json:"os"`
	} `json:"host"`
	Accesses int64 `json:"accesses"`
	Apps     int   `json:"apps"`
	Schemes  []struct {
		Label       string  `json:"label"`
		Energy      float64 `json:"energy_pj_per_bit"`
		WallSeconds float64 `json:"wall_seconds"`
	} `json:"schemes"`
}

func runBench(t *testing.T, dir string, args ...string) ([]byte, error) {
	t.Helper()
	cmd := exec.Command(bin(dir, "smores-bench"),
		append([]string{"-accesses", "60", "-q", "-out", "-"}, args...)...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	if err != nil {
		if _, ok := err.(*exec.ExitError); !ok {
			t.Fatalf("smores-bench did not run: %v\n%s", err, stderr.String())
		}
	}
	return stdout.Bytes(), err
}

func TestBenchJSONShapeAndRegressionGate(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := buildMains(t)

	raw, err := runBench(t, dir)
	if err != nil {
		t.Fatalf("plain bench run failed: %v", err)
	}
	var rep benchReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("stdout is not a JSON report: %v\n%s", err, raw)
	}
	if rep.Version == 0 || rep.Date == "" || rep.Host.OS == "" {
		t.Errorf("report header incomplete: %+v", rep)
	}
	if rep.Accesses != 60 || rep.Apps == 0 {
		t.Errorf("accesses=%d apps=%d", rep.Accesses, rep.Apps)
	}
	if len(rep.Schemes) != 5 {
		t.Fatalf("schemes = %d, want the 5-policy evaluation matrix", len(rep.Schemes))
	}
	for _, s := range rep.Schemes {
		if s.Label == "" || s.Energy <= 0 || s.WallSeconds <= 0 {
			t.Errorf("scheme row incomplete: %+v", s)
		}
	}

	// Same run gated against itself: 0 regressions, exit 0.
	self := filepath.Join(t.TempDir(), "self.json")
	if err := os.WriteFile(self, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := runBench(t, dir, "-compare", self); err != nil {
		t.Errorf("self-comparison regressed: %v", err)
	}

	// Without -out, a compare writes no report: it leaves no
	// BENCH_<date>.json in its working directory, whatever the verdict
	// of its noisy same-host wall gate.
	wd := t.TempDir()
	gate := exec.Command(bin(dir, "smores-bench"), "-accesses", "60", "-q", "-compare", self)
	gate.Dir = wd
	if out, err := gate.CombinedOutput(); err != nil {
		if _, ok := err.(*exec.ExitError); !ok {
			t.Fatalf("smores-bench did not run: %v\n%s", err, out)
		}
	}
	if stray, err := filepath.Glob(filepath.Join(wd, "BENCH_*.json")); err != nil || len(stray) != 0 {
		t.Errorf("a compare without -out left %v in its working directory (glob err %v)", stray, err)
	}

	// A baseline one ulp away from the current run, in either direction,
	// is an energy regression: energies must match bit for bit — exit 1.
	for _, toward := range []float64{math.Inf(1), math.Inf(-1)} {
		var doc map[string]any
		if err := json.Unmarshal(raw, &doc); err != nil {
			t.Fatal(err)
		}
		row := doc["schemes"].([]any)[0].(map[string]any)
		row["energy_pj_per_bit"] = math.Nextafter(row["energy_pj_per_bit"].(float64), toward)
		perturbed, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		bad := filepath.Join(t.TempDir(), "perturbed.json")
		if err := os.WriteFile(bad, perturbed, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err = runBench(t, dir, "-compare", bad)
		ee, ok := err.(*exec.ExitError)
		if !ok || ee.ExitCode() != 1 {
			t.Errorf("baseline energy one ulp toward %v: err=%v, want exit code 1", toward, err)
		}
	}

	// A malformed tolerance is a usage error (exit 1 via fail()).
	if _, err := runBench(t, dir, "-perf-tolerance", "2.5"); err == nil {
		t.Error("perf tolerance 2.5 accepted; want rejection (outside [0,1])")
	}
}
