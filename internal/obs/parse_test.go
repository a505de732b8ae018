package obs

import (
	"bytes"
	"strings"
	"testing"

	"smores/internal/floats"
)

// TestParseProfileJSONRoundTrip: WriteProfileJSON → ParseProfileJSON
// reconstructs every cell bit-identically, across all name-mapped
// dimensions including the agg/mix pseudo-coordinates.
func TestParseProfileJSONRoundTrip(t *testing.T) {
	p := NewProfile()
	p.AddSymbol(PhaseMTAPayload, ProfileCodecMTA, 0, 1, Trans1DV, 0.1+0.2)
	p.AddSymbol(PhaseDBIWire, ProfileCodecPAM4DBI, 17, 3, Trans3DV, 7.5)
	p.AddSymbol(PhaseSparsePayload, ProfileCodecIndex(5), 9, 0, TransSeam, 12)
	p.AddAggregate(PhaseLogic, ProfileCodecPAM4, 99.25, 1024)
	p.Add(PhaseReplay, ProfileCodecIndex(8), 3, 2, Trans2DV, 0, 6) // count-only cell

	var buf bytes.Buffer
	if err := WriteProfileJSON(&buf, p.Snapshot()); err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseProfileJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !EqualCells(ProfileDeltaCells(parsed.Snapshot()), ProfileDeltaCells(p.Snapshot())) {
		t.Fatal("parsed profile cells diverged")
	}
	if !floats.Eq(parsed.TotalEnergy(), p.TotalEnergy()) {
		t.Fatalf("parsed total %v != %v", parsed.TotalEnergy(), p.TotalEnergy())
	}
	if parsed.TotalSymbols() != p.TotalSymbols() {
		t.Fatalf("parsed symbols %d != %d", parsed.TotalSymbols(), p.TotalSymbols())
	}
}

func TestParseProfileJSONRejectsUnknownNames(t *testing.T) {
	cases := map[string]string{
		"phase":      `{"cells":[{"phase":"warp-drive","codec":"mta","wire":"0","level":"L0","transition":"0dv","fj":1}]}`,
		"codec":      `{"cells":[{"phase":"logic","codec":"4b99s","wire":"0","level":"L0","transition":"0dv","fj":1}]}`,
		"wire":       `{"cells":[{"phase":"logic","codec":"mta","wire":"18","level":"L0","transition":"0dv","fj":1}]}`,
		"level":      `{"cells":[{"phase":"logic","codec":"mta","wire":"0","level":"L9","transition":"0dv","fj":1}]}`,
		"transition": `{"cells":[{"phase":"logic","codec":"mta","wire":"0","level":"L0","transition":"warp","fj":1}]}`,
	}
	for name, doc := range cases {
		if _, err := ParseProfileJSON(strings.NewReader(doc)); err == nil {
			t.Errorf("unknown %s accepted", name)
		}
	}
}
