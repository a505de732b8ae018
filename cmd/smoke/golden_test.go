package smoke

// Golden outputs: the paper artifacts' printed tables and -json exports
// for a fixed seed, committed under testdata/: smores-eval's tables at
// one and four channels, smores-codebook's figures and tables, a small
// smores-fault campaign, and smores-sim's eye analysis. Any change that
// moves a printed number shows up here as a text diff. Rewrite the
// files with
//
//	go test ./cmd/smoke -run TestEvalGolden -update
//
// (make golden) and review the diff before committing it.

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

func TestEvalGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries and runs full fleets")
	}
	dir := buildMains(t)
	cases := []struct {
		name string
		main string
		args []string
		json bool // pin the -json export too
	}{
		{"eval-all-20000", "smores-eval", []string{"-all", "-accesses", "20000", "-seed", "1", "-j", "2"}, true},
		{"eval-channels4-all-4000", "smores-eval", []string{"-channels", "4", "-all", "-accesses", "4000", "-seed", "1"}, true},
		{"codebook-all", "smores-codebook", []string{"-all"}, false},
		{"fault-3apps", "smores-fault", []string{"-apps", "3", "-models", "uniform,bursty,eye",
			"-accesses", "1000", "-rates", "1e-3", "-seed", "1"}, true},
		{"sim-eye", "smores-sim", []string{"-eye"}, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			args := c.args
			jsonPath := filepath.Join(t.TempDir(), "export.json")
			if c.json {
				args = append(args, "-json", jsonPath)
			}
			var stdout, stderr bytes.Buffer
			cmd := exec.Command(bin(dir, c.main), args...)
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			if err := cmd.Run(); err != nil {
				t.Fatalf("%s %v: %v\n%s", c.main, args, err, stderr.String())
			}
			checkGolden(t, filepath.Join("testdata", c.name+".txt"), stdout.Bytes())
			if !c.json {
				return
			}
			exported, err := os.ReadFile(jsonPath)
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, filepath.Join("testdata", c.name+".json"), exported)
		})
	}
}

// checkGolden compares got with the golden file at path, or rewrites the
// file under -update.
func checkGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from the output: %s", path, firstDiff(want, got))
	}
}

// firstDiff describes the first line where want and got differ.
func firstDiff(want, got []byte) string {
	wl, gl := bytes.Split(want, []byte("\n")), bytes.Split(got, []byte("\n"))
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var w, g []byte
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if !bytes.Equal(w, g) || i >= len(wl) || i >= len(gl) {
			return fmt.Sprintf("line %d\n  golden: %q\n  output: %q", i+1, w, g)
		}
	}
	return "no line differs"
}
