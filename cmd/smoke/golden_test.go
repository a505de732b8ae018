package smoke

// Golden outputs: smores-eval's printed tables and -json export for a
// fixed seed, committed under testdata/. Any change that moves a
// printed number shows up here as a text diff. Rewrite the files with
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
	eval := bin(dir, "smores-eval")
	cases := []struct {
		name string
		args []string
	}{
		{"eval-all-20000", []string{"-all", "-accesses", "20000", "-seed", "1", "-j", "2"}},
		{"eval-channels4-all-4000", []string{"-channels", "4", "-all", "-accesses", "4000", "-seed", "1"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			jsonPath := filepath.Join(t.TempDir(), "eval.json")
			var stdout, stderr bytes.Buffer
			cmd := exec.Command(eval, append(c.args, "-json", jsonPath)...)
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			if err := cmd.Run(); err != nil {
				t.Fatalf("smores-eval %v: %v\n%s", c.args, err, stderr.String())
			}
			exported, err := os.ReadFile(jsonPath)
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, filepath.Join("testdata", c.name+".txt"), stdout.Bytes())
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
