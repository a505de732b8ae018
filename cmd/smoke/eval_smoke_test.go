package smoke

// Black-box checks of smores-eval. Fleets run apps on the -j pool at
// every channel count, and neither the printed tables nor the -json
// export may depend on the pool size; the multi-channel run prints the
// paper's tables and writes the CSVs as the one-channel run does.

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"testing"
)

func TestEvalWorkerInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := buildMains(t)
	eval := bin(dir, "smores-eval")

	type evalCase struct {
		name     string
		args     []string
		wantOut  []string // stdout must hold each
		wantJSON string   // the -json export must hold it; "" runs without -json
		csv      bool     // run with -csv and expect every fleet and gap CSV
	}
	// run returns smores-eval's stdout and, when the case expects one, its
	// -json export at -j j.
	run := func(t *testing.T, c evalCase, j string) (stdout, exported []byte) {
		t.Helper()
		tmp := t.TempDir()
		args := append(slices.Clone(c.args), "-j", j)
		jsonPath, csvDir := filepath.Join(tmp, "eval.json"), filepath.Join(tmp, "csv")
		if c.wantJSON != "" {
			args = append(args, "-json", jsonPath)
		}
		if c.csv {
			args = append(args, "-csv", csvDir)
		}
		var out, stderr bytes.Buffer
		cmd := exec.Command(eval, args...)
		cmd.Stdout, cmd.Stderr = &out, &stderr
		if err := cmd.Run(); err != nil {
			t.Fatalf("smores-eval %v: %v\n%s", args, err, stderr.String())
		}
		if c.csv {
			for _, name := range []string{"fleet_baseline.csv", "fleet_optimized.csv", "fleet_variable.csv",
				"fleet_static.csv", "fleet_conservative.csv", "gaps_baseline.csv"} {
				if _, err := os.Stat(filepath.Join(csvDir, name)); err != nil {
					t.Errorf("smores-eval %v wrote no %s: %v", args, name, err)
				}
			}
		}
		if c.wantJSON == "" {
			return out.Bytes(), nil
		}
		exported, err := os.ReadFile(jsonPath)
		if err != nil {
			t.Fatal(err)
		}
		return out.Bytes(), exported
	}
	cases := []evalCase{
		{name: "single-channel", args: []string{"-table5", "-accesses", "300"},
			wantOut: []string{"Table V — energy saving"}, wantJSON: `"fleets": [`},
		{name: "multi-channel", args: []string{"-channels", "4", "-all", "-accesses", "1000"},
			wantOut:  []string{"4 channels × 42 apps", "Table V — energy saving", "Figure 5a", "Energy savings waterfall"},
			wantJSON: `"channels": 4`, csv: true},
		// The sweeps write no JSON export.
		{name: "sweep", args: []string{"-sweep", "-accesses", "2000"},
			wantOut: []string{"Conservative detection-window sweep"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			seqOut, seqJSON := run(t, c, "1")
			parOut, parJSON := run(t, c, "3")
			for _, want := range c.wantOut {
				if !bytes.Contains(seqOut, []byte(want)) {
					t.Errorf("stdout lacks %q:\n%s", want, seqOut)
				}
			}
			if !bytes.Contains(seqJSON, []byte(c.wantJSON)) {
				t.Errorf("unexpected JSON:\n%s", seqJSON)
			}
			if !bytes.Equal(seqOut, parOut) {
				t.Errorf("stdout depends on -j:\n-j 1:\n%s\n-j 3:\n%s", seqOut, parOut)
			}
			if !bytes.Equal(seqJSON, parJSON) {
				t.Errorf("-json export depends on -j:\n-j 1:\n%s\n-j 3:\n%s", seqJSON, parJSON)
			}
		})
	}
}
