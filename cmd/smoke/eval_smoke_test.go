package smoke

// Black-box check of smores-eval's multi-channel path: the fleet
// scheduler streams apps over the -j pool, and neither the summary nor
// the -json export may depend on the pool size.

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

func TestEvalMultiChannelSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := buildMains(t)
	eval := bin(dir, "smores-eval")

	run := func(j string) (stdout, export []byte) {
		var out, stderr bytes.Buffer
		jsonPath := filepath.Join(t.TempDir(), "eval.json")
		cmd := exec.Command(eval, "-channels", "4", "-accesses", "1000", "-json", jsonPath, "-j", j)
		cmd.Stdout, cmd.Stderr = &out, &stderr
		if err := cmd.Run(); err != nil {
			t.Fatalf("smores-eval -j %s: %v\n%s", j, err, stderr.String())
		}
		export, err := os.ReadFile(jsonPath)
		if err != nil {
			t.Fatal(err)
		}
		return out.Bytes(), export
	}
	seqOut, seqJSON := run("1")
	parOut, parJSON := run("3")
	if !bytes.Contains(seqOut, []byte("4 channels × 42 apps")) {
		t.Errorf("unexpected multi-channel summary:\n%s", seqOut)
	}
	if !bytes.Contains(seqJSON, []byte(`"channels": 4`)) {
		t.Errorf("unexpected multi-channel JSON:\n%s", seqJSON)
	}
	if !bytes.Equal(seqOut, parOut) {
		t.Errorf("stdout depends on -j:\n-j 1:\n%s\n-j 3:\n%s", seqOut, parOut)
	}
	if !bytes.Equal(seqJSON, parJSON) {
		t.Errorf("-json export depends on -j:\n-j 1:\n%s\n-j 3:\n%s", seqJSON, parJSON)
	}
}
