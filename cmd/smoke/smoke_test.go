// Package smoke black-box tests the command-line entry points: every
// main must parse its flags (-h exits 0, an unknown flag exits 2). The
// mains are built once per test run with the local toolchain.
package smoke

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"testing"
)

var mains = []string{
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
