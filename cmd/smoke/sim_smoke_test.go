package smoke

// Black-box checks of smores-sim's multi-channel path: one engine whose
// output does not depend on -j, no flag to pick another engine, and a
// non-positive access budget rejected up front instead of simulating
// forever.

import (
	"bytes"
	"context"
	"os/exec"
	"testing"
	"time"
)

func TestSimMultiChannelSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := buildMains(t)
	sim := bin(dir, "smores-sim")

	run := func(j string) []byte {
		var stdout, stderr bytes.Buffer
		cmd := exec.Command(sim, "-app", "bert", "-channels", "4", "-accesses", "2000", "-j", j)
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		if err := cmd.Run(); err != nil {
			t.Fatalf("smores-sim -j %s: %v\n%s", j, err, stderr.String())
		}
		return stdout.Bytes()
	}
	seq, par := run("1"), run("4")
	for _, want := range []string{"over 4 channels", "bursts:", "read gaps:", "write gaps:",
		"read latency:", "channel balance:"} {
		if !bytes.Contains(seq, []byte(want)) {
			t.Errorf("multi-channel output lacks %q:\n%s", want, seq)
		}
	}
	if !bytes.Equal(seq, par) {
		t.Errorf("stdout depends on -j:\n-j 1:\n%s\n-j 4:\n%s", seq, par)
	}

	// The engine switch is gone: an unknown flag, so exit code 2.
	err := exec.Command(sim, "-sharded", "-channels", "2", "-accesses", "100").Run()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 {
		t.Errorf("smores-sim with the removed engine flag: err=%v, want exit code 2", err)
	}

	// A zero budget fails at once instead of running the endless
	// synthetic generator to the driver's clock limit.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	start := time.Now()
	out, err := exec.CommandContext(ctx, sim, "-app", "bfs", "-accesses", "0").CombinedOutput()
	if ctx.Err() != nil {
		t.Fatalf("smores-sim -accesses 0 still running after %v", time.Since(start))
	}
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 {
		t.Errorf("smores-sim -accesses 0: err=%v, want exit code 1\n%s", err, out)
	}
	if !bytes.Contains(out, []byte("positive access budget")) {
		t.Errorf("smores-sim -accesses 0 did not name the budget:\n%s", out)
	}
}
