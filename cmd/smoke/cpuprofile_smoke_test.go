package smoke

// Black-box checks of -cpuprofile on the commands that run the
// simulator: the profile file is written and non-empty, stdout is byte
// for byte what the same run prints without the flag, and a run that
// fails after the profile started still leaves it behind, because the
// commands stop the profile on every way out.

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

func TestCPUProfileFlag(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := buildMains(t)
	work := t.TempDir()
	store := filepath.Join(work, "bfs.store")
	runTool(t, dir, "smores-trace", "-record", "bfs", "-n", "2000", "-seed", "1", "-store", store)

	for _, c := range []struct {
		name string
		args []string
	}{
		{"smores-eval", []string{"-table5", "-accesses", "300", "-j", "1"}},
		{"smores-sim", []string{"-app", "bfs", "-accesses", "2000"}},
		{"smores-trace", []string{"-replay", store}},
		{"smores-fault", []string{"-rates", "1e-3", "-models", "uniform", "-edc", "on", "-apps", "1", "-accesses", "1000", "-j", "1"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			plain := stdoutOf(t, dir, c.name, c.args...)
			prof := filepath.Join(work, c.name+".pprof")
			profiled := stdoutOf(t, dir, c.name, append([]string{"-cpuprofile", prof}, c.args...)...)
			if !bytes.Equal(plain, profiled) {
				t.Errorf("stdout differs with -cpuprofile:\nwithout:\n%s\nwith:\n%s", plain, profiled)
			}
			requireNonEmpty(t, prof)
		})
	}

	prof := filepath.Join(work, "failed.pprof")
	wantExit(t, dir, 1, "smores-sim", "-cpuprofile", prof, "-app", "no-such-app")
	requireNonEmpty(t, prof)
}

// stdoutOf runs a tool that must succeed and returns its stdout alone.
func stdoutOf(t *testing.T, dir, name string, args ...string) []byte {
	t.Helper()
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(bin(dir, name), args...)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("%s %s: %v\n%s", name, strings.Join(args, " "), err, stderr.String())
	}
	return stdout.Bytes()
}

func requireNonEmpty(t *testing.T, path string) {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() == 0 {
		t.Fatalf("%s is empty", path)
	}
}
