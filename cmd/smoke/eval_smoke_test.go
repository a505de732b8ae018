package smoke

// Black-box check of smores-eval's two evaluation paths. The
// single-channel fleets and the multi-channel fleet scheduler both run
// apps on the -j pool, and neither the printed tables nor the -json
// export may depend on the pool size.

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

func TestEvalWorkerInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := buildMains(t)
	eval := bin(dir, "smores-eval")

	// run returns smores-eval's stdout and, when export is set, its -json
	// export at -j j.
	run := func(t *testing.T, j string, export bool, args ...string) (stdout, exported []byte) {
		t.Helper()
		var out, stderr bytes.Buffer
		jsonPath := filepath.Join(t.TempDir(), "eval.json")
		if export {
			args = append(args, "-json", jsonPath)
		}
		cmd := exec.Command(eval, append(args, "-j", j)...)
		cmd.Stdout, cmd.Stderr = &out, &stderr
		if err := cmd.Run(); err != nil {
			t.Fatalf("smores-eval %v -j %s: %v\n%s", args, j, err, stderr.String())
		}
		if !export {
			return out.Bytes(), nil
		}
		exported, err := os.ReadFile(jsonPath)
		if err != nil {
			t.Fatal(err)
		}
		return out.Bytes(), exported
	}
	cases := []struct {
		name     string
		args     []string
		wantOut  string
		wantJSON string
	}{
		{"single-channel", []string{"-table5", "-accesses", "300"},
			"Table V — energy saving", `"fleets": [`},
		{"multi-channel", []string{"-channels", "4", "-accesses", "1000"},
			"4 channels × 42 apps", `"channels": 4`},
		// The sweeps write no JSON export.
		{"sweep", []string{"-sweep", "-accesses", "2000"},
			"Conservative detection-window sweep", ""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			export := c.wantJSON != ""
			seqOut, seqJSON := run(t, "1", export, c.args...)
			parOut, parJSON := run(t, "3", export, c.args...)
			if !bytes.Contains(seqOut, []byte(c.wantOut)) {
				t.Errorf("unexpected stdout:\n%s", seqOut)
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
