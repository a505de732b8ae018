package smoke

// Byte-stable artifacts: every file a command writes, except a CPU
// profile, is a pure function of its flags and seed. Each case runs its
// commands twice, each time in a fresh directory, at -j 1 and then at
// -j 3 when the commands take -j, and compares stdout and every file
// written byte for byte. smores-hwcost takes seconds and writes only
// stdout, so it is left out.

import (
	"bytes"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"testing"
)

func TestArtifactsByteStable(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := buildMains(t)
	// A step is a main and its arguments. Output paths are relative, so
	// a command that prints one prints the same bytes in either run.
	type step []string
	sim := step{"smores-sim", "-app", "bfs", "-accesses", "2000", "-trace", "trace.json", "-folded", "folded.txt"}
	eval := step{"smores-eval", "-all", "-accesses", "300", "-json", "eval.json", "-csv", "csv"}
	cases := []struct {
		name   string
		steps  []step
		takesJ bool
	}{
		{"sim-trace-folded", []step{sim}, true},
		{"sim-channels4-trace-folded", []step{append(slices.Clone(sim), "-channels", "4")}, true},
		{"eval-all-json-csv", []step{eval}, true},
		{"eval-channels4-all-json-csv", []step{append(slices.Clone(eval), "-channels", "4")}, true},
		{"fault-json", []step{{"smores-fault", "-apps", "3", "-models", "uniform,bursty,eye",
			"-accesses", "1000", "-rates", "1e-3", "-json", "fault.json"}}, true},
		{"verilog", []step{{"smores-verilog", "-o", "rtl"}}, false},
		{"trace-store", []step{
			{"smores-trace", "-record", "bfs", "-n", "2000", "-seed", "1", "-store", "s.store", "-shards", "4"},
			{"smores-trace", "-info", "s.store", "-stats-json", "stats.json"},
			{"smores-trace", "-replay", "s.store", "-profile", "profile.json", "-chrome", "trace.json", "-folded", "folded.txt"},
		}, false},
	}
	// run executes the steps in a fresh directory, adding -j j when j is
	// set, and returns each step's stdout and every file left behind,
	// keyed by name.
	run := func(t *testing.T, steps []step, j string) map[string][]byte {
		t.Helper()
		work := t.TempDir()
		out := map[string][]byte{}
		for i, s := range steps {
			args := slices.Clone(s[1:])
			if j != "" {
				args = append(args, "-j", j)
			}
			var stdout, stderr bytes.Buffer
			cmd := exec.Command(bin(dir, s[0]), args...)
			cmd.Dir = work
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			if err := cmd.Run(); err != nil {
				t.Fatalf("%s %v: %v\n%s", s[0], args, err, stderr.String())
			}
			out[fmt.Sprintf("stdout of step %d (%s)", i+1, s[0])] = stdout.Bytes()
		}
		err := filepath.WalkDir(work, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			rel, err := filepath.Rel(work, path)
			if err != nil {
				return err
			}
			out[rel], err = os.ReadFile(path)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			j1, j2 := "", ""
			if c.takesJ {
				j1, j2 = "1", "3"
			}
			first, second := run(t, c.steps, j1), run(t, c.steps, j2)
			if len(first) <= len(c.steps) {
				t.Fatalf("the commands wrote no file: %v", names(first))
			}
			if !slices.Equal(names(first), names(second)) {
				t.Fatalf("the runs wrote different files:\n%v\n%v", names(first), names(second))
			}
			for _, name := range names(first) {
				if !bytes.Equal(first[name], second[name]) {
					t.Errorf("%s differs between the runs (-j %q and -j %q) from byte %d on", name, j1, j2, diffOffset(first[name], second[name]))
				}
			}
		})
	}
}

// names returns the map's keys in order.
func names(m map[string][]byte) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// diffOffset returns the offset of the first byte where a and b differ,
// or the shorter length when one is a prefix of the other.
func diffOffset(a, b []byte) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}
