package smoke

// Black-box pipeline tests for smores-trace's columnar-store verbs and
// their hand-off to smores-eval: record → info → scan → verify → replay
// must reproduce the replay of the committed SMTR fixture imported as a
// store, and a CSV-imported store must run end-to-end through the
// evaluation as a named fleet member.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func runTool(t *testing.T, dir, name string, args ...string) string {
	t.Helper()
	out, err := exec.Command(bin(dir, name), args...).CombinedOutput()
	if err != nil {
		t.Fatalf("%s %s: %v\n%s", name, strings.Join(args, " "), err, out)
	}
	return string(out)
}

// wantExit runs a tool that must fail and checks its exit code.
func wantExit(t *testing.T, dir string, code int, name string, args ...string) {
	t.Helper()
	out, err := exec.Command(bin(dir, name), args...).CombinedOutput()
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != code {
		t.Errorf("%s %s: err=%v, want exit code %d\n%s", name, strings.Join(args, " "), err, code, out)
	}
}

func TestTraceStorePipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := buildMains(t)
	work := t.TempDir()
	store := filepath.Join(work, "t.store")

	// The flat-file flags are parse errors, and a zero-access recording
	// is refused rather than defaulted to the full-length run.
	wantExit(t, dir, 2, "smores-trace", "-pack", filepath.Join(work, "t.smtr"))
	wantExit(t, dir, 2, "smores-trace", "-unpack", store)
	wantExit(t, dir, 2, "smores-trace", "-record", "bfs", "-out", filepath.Join(work, "t.smtr"))
	wantExit(t, dir, 1, "smores-trace", "-record", "bfs", "-n", "0", "-store", store)

	// A zero-byte SMTR file is a valid empty trace, not a header error.
	empty := filepath.Join(work, "empty.smtr")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	emptyStore := filepath.Join(work, "empty.store")
	if out := runTool(t, dir, "smores-trace", "-import", empty, "-store", emptyStore); !strings.Contains(out, "imported 0 records") {
		t.Errorf("import of a zero-byte trace: %q", out)
	}
	if out := runTool(t, dir, "smores-trace", "-info", emptyStore); !strings.Contains(out, "0 records in 1 shards") {
		t.Errorf("-info on the empty store: %q", out)
	}

	out := runTool(t, dir, "smores-trace", "-record", "bfs", "-n", "2000", "-seed", "1",
		"-store", store, "-shards", "2", "-name", "bfs-rec")
	if !strings.Contains(out, "recorded 2000 accesses") {
		t.Fatalf("record: %q", out)
	}

	// -info with the JSON artifact CI uploads.
	statsPath := filepath.Join(work, "store-stats.json")
	out = runTool(t, dir, "smores-trace", "-info", store, "-stats-json", statsPath)
	if !strings.Contains(out, `store of "bfs-rec"`) || !strings.Contains(out, "2000 records in 2 shards") {
		t.Errorf("store info: %q", out)
	}
	raw, err := os.ReadFile(statsPath)
	if err != nil {
		t.Fatal(err)
	}
	var stats struct {
		Records         int64 `json:"records"`
		Shards          int   `json:"shards"`
		CompressedBytes int64 `json:"compressed_bytes"`
	}
	if err := json.Unmarshal(raw, &stats); err != nil {
		t.Fatalf("stats artifact is not JSON: %v\n%s", err, raw)
	}
	if stats.Records != 2000 || stats.Shards != 2 || stats.CompressedBytes <= 0 {
		t.Errorf("stats artifact wrong: %+v", stats)
	}

	// A sector-only scan decodes just the sector column: the think, flags
	// and payload rows must report zero bytes read.
	out = runTool(t, dir, "smores-trace", "-scan", store, "-fields", "sector")
	if !strings.Contains(out, "scanned 2000 of 2000 records") {
		t.Errorf("scan: %q", out)
	}
	for _, col := range []string{"think", "flags", "payload"} {
		re := regexp.MustCompile(col + `\s+0 bytes read`)
		if !re.MatchString(out) {
			t.Errorf("sector-only scan read %s bytes:\n%s", col, out)
		}
	}

	if out = runTool(t, dir, "smores-trace", "-verify", store); !strings.Contains(out, "all checksums good") {
		t.Errorf("verify: %q", out)
	}

	// The recorded store must replay exactly like the committed SMTR
	// fixture of the same stream (bfs, 2000 accesses, seed 1) imported
	// as a store: same accesses, clocks, energy, gap histogram.
	fixture := filepath.Join("..", "..", "internal", "report", "testdata", "bfs-2000-seed1.smtr")
	imported := filepath.Join(work, "fixture.store")
	runTool(t, dir, "smores-trace", "-import", fixture, "-store", imported)
	recorded := runTool(t, dir, "smores-trace", "-replay", store)
	if want := runTool(t, dir, "smores-trace", "-replay", imported); recorded != want {
		t.Errorf("recorded store replay diverged from the fixture's:\nrecorded %q\nfixture  %q", recorded, want)
	}
}

// TestTraceImportEval imports a CSV memory trace and runs it through the
// full evaluation as an extra fleet member.
func TestTraceImportEval(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := buildMains(t)
	work := t.TempDir()

	csv := filepath.Join(work, "cam.csv")
	lines := []string{"addr,think,op"}
	for i := 0; i < 200; i++ {
		op := "R"
		if i%3 == 0 {
			op = "W"
		}
		lines = append(lines, fmt.Sprintf("0x%x,1,%s", i*32, op))
	}
	if err := os.WriteFile(csv, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	store := filepath.Join(work, "cam.store")
	out := runTool(t, dir, "smores-trace", "-import", csv, "-store", store)
	if !strings.Contains(out, `as workload "cam"`) {
		t.Fatalf("import: %q", out)
	}

	jsonPath := filepath.Join(work, "eval.json")
	cmd := exec.Command(bin(dir, "smores-eval"),
		"-table5", "-accesses", "200", "-trace", store, "-json", jsonPath)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("smores-eval -trace: %v\n%s", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), `as fleet member "cam"`) {
		t.Errorf("eval did not announce the trace member:\n%s", stderr.String())
	}
	raw, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(raw, []byte(`"cam"`)) {
		t.Error("evaluation JSON has no row for the imported workload")
	}

	// A store whose block fails its checksum fails the evaluation, and
	// the error names the member.
	bad := filepath.Join(work, "bad.store")
	runTool(t, dir, "smores-trace", "-record", "bfs", "-n", "2000", "-seed", "1", "-store", bad, "-shards", "1", "-name", "bfs-bad")
	col := filepath.Join(bad, "shard-000000.sector")
	raw, err = os.ReadFile(col)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xff
	if err := os.WriteFile(col, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	evalOut, err := exec.Command(bin(dir, "smores-eval"), "-table5", "-accesses", "200", "-trace", bad).CombinedOutput()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() == 0 {
		t.Errorf("smores-eval -trace over a corrupt store: err=%v, want a failing exit\n%s", err, evalOut)
	}
	if !bytes.Contains(evalOut, []byte("bfs-bad: access stream ended on an error")) {
		t.Errorf("smores-eval -trace over a corrupt store did not name it:\n%s", evalOut)
	}
}
