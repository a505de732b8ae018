package smoke

// Black-box checks that the shipped commands export the whole energy
// attribution profile: smores-trace -replay drives the memory
// controller itself rather than through the report runners, and
// smores-sim runs one app through them. A run whose attribution never
// reached its profile would export an empty or partial one.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

func TestProfileExportSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := buildMains(t)
	work := t.TempDir()

	store := filepath.Join(work, "bfs.store")
	runTool(t, dir, "smores-trace", "-record", "bfs", "-n", "2000", "-seed", "1", "-store", store)
	profJSON, folded := filepath.Join(work, "p.json"), filepath.Join(work, "trace.folded")
	out := runTool(t, dir, "smores-trace", "-replay", store, "-profile", profJSON, "-folded", folded)
	m := regexp.MustCompile(`wrote energy attribution \((\S+) fJ over (\d+) symbols\) to ` + regexp.QuoteMeta(profJSON)).FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("smores-trace -replay did not report the JSON export:\n%s", out)
	}
	raw, err := os.ReadFile(profJSON)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Cells []struct {
			FJ float64 `json:"fj"`
		} `json:"cells"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("profile JSON: %v", err)
	}
	if len(doc.Cells) == 0 {
		t.Fatal("smores-trace exported a profile with no cells")
	}
	var sum float64
	for _, c := range doc.Cells {
		sum += c.FJ
	}
	if got := fmt.Sprintf("%.4g", sum); got != m[1] {
		t.Errorf("profile JSON cells sum to %s fJ, smores-trace reported %s fJ", got, m[1])
	}
	if foldedSum(t, folded) == 0 {
		t.Error("smores-trace exported empty folded stacks")
	}

	// smores-sim: the folded stacks, rounded per cell, must add up to
	// the energy the run reports as fJ/bit over its 32-byte transfers.
	simFolded := filepath.Join(work, "sim.folded")
	out = runTool(t, dir, "smores-sim", "-app", "bfs", "-accesses", "2000", "-folded", simFolded)
	sm := regexp.MustCompile(`DRAM traffic:\s+(\d+) reads, (\d+) writes`).FindStringSubmatch(out)
	em := regexp.MustCompile(`energy:\s+([0-9.]+) fJ/bit`).FindStringSubmatch(out)
	if sm == nil || em == nil {
		t.Fatalf("unexpected smores-sim output:\n%s", out)
	}
	reads, _ := strconv.ParseFloat(sm[1], 64)
	writes, _ := strconv.ParseFloat(sm[2], 64)
	perBit, _ := strconv.ParseFloat(em[1], 64)
	total := perBit * (reads + writes) * 32 * 8
	if got := foldedSum(t, simFolded); total <= 0 || math.Abs(got-total) > 1e-3*total {
		t.Errorf("smores-sim folded stacks sum to %.6g fJ, its report implies %.6g fJ", got, total)
	}
}

// foldedSum adds up the values of a folded-stacks file.
func foldedSum(t *testing.T, path string) float64 {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	sc := bufio.NewScanner(bytes.NewReader(raw))
	for sc.Scan() {
		line := sc.Text()
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if i < 0 || err != nil {
			t.Fatalf("%s: malformed folded line %q", path, line)
		}
		sum += v
	}
	return sum
}
