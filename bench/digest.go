package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"strconv"

	"smores/internal/fault"
)

// policyDigest is one encoding policy's fleet outcome.
type policyDigest struct {
	Label string `json:"label"`
	// PJPerBit is the fleet-mean transfer energy; Bits is its IEEE-754
	// pattern, which is what the golden comparison pins.
	PJPerBit float64 `json:"pj_per_bit"`
	Bits     string  `json:"pj_per_bit_bits"`
	// Fault is the summed injector accounting (exact-link only).
	Fault *fault.Stats `json:"fault,omitempty"`
}

// digest condenses one pass's simulated outputs. Every pass of a run must
// produce the same digest, and seeds 1–3 must reproduce the committed
// golden digests.
type digest struct {
	Policies []policyDigest `json:"policies"`
	// Clocks, Reads and Writes sum the simulated clocks and DRAM
	// operations over every app (and policy) of the pass.
	Clocks int64 `json:"clocks"`
	Reads  int64 `json:"reads"`
	Writes int64 `json:"writes"`
}

// addPolicy appends a policy row from its fleet-mean fJ/bit.
func (d *digest) addPolicy(label string, meanFJPerBit float64, fs *fault.Stats) {
	pj := meanFJPerBit / 1000
	d.Policies = append(d.Policies, policyDigest{
		Label:    label,
		PJPerBit: pj,
		Bits:     "0x" + strconv.FormatUint(math.Float64bits(pj), 16),
		Fault:    fs,
	})
}

// equal compares two digests exactly: the float fields travel as their bit
// patterns, so byte-equal encodings mean bit-equal outputs.
func (d digest) equal(o digest) bool {
	a, errA := json.Marshal(d)
	b, errB := json.Marshal(o)
	return errA == nil && errB == nil && bytes.Equal(a, b)
}

// goldenSet maps seed → workload → digest.
type goldenSet map[string]map[string]digest

// goldenFull holds the digests of seeds 1–3 at benchmark size, regenerated
// only by `go test -update` in this directory.
//
//go:embed testdata/golden-full.json
var goldenFull []byte

func parseGolden(data []byte) (goldenSet, error) {
	var g goldenSet
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("golden digests: %w", err)
	}
	return g, nil
}

// lookup returns the golden digest for (seed, workload), if one is pinned.
func (g goldenSet) lookup(seed uint64, workload string) (digest, bool) {
	d, ok := g[strconv.FormatUint(seed, 10)][workload]
	return d, ok
}
