package obs

import (
	"bytes"
	"encoding/json"
	"strconv"
	"strings"
	"testing"

	"smores/internal/floats"
)

func TestProfileNilSafety(t *testing.T) {
	var p *Profile
	p.Add(PhaseMTAPayload, 0, 0, 0, Trans0DV, 1, 1)
	p.Add(PhaseLogic, 0, WireAgg, LevelMix, TransMix, 1, 1)
	if fj, n := p.Cell(PhaseMTAPayload, 0, 0, 0, Trans0DV); fj != 0 || n != 0 {
		t.Fatal("nil profile returned data")
	}
	if p.TotalEnergy() != 0 || p.TotalSymbols() != 0 || p.PhaseEnergy(PhaseLogic) != 0 {
		t.Fatal("nil profile totals nonzero")
	}
	if s := p.Snapshot(); len(s.Cells) != 0 {
		t.Fatal("nil profile snapshot has cells")
	}
}

func TestProfileCellRoundTrip(t *testing.T) {
	p := NewProfile()
	p.Add(PhaseSparsePayload, 2, 5, 3, Trans2DV, 10.5, 2)
	p.Add(PhaseSparsePayload, 2, 5, 3, Trans2DV, 1.5, 1)
	fj, n := p.Cell(PhaseSparsePayload, 2, 5, 3, Trans2DV)
	if fj != 12 || n != 3 {
		t.Fatalf("cell = (%v,%v), want (12,3)", fj, n)
	}
	// Neighboring cells must stay empty.
	if fj, n := p.Cell(PhaseSparsePayload, 2, 5, 3, Trans1DV); fj != 0 || n != 0 {
		t.Fatal("neighbor cell contaminated")
	}
	if fj, n := p.Cell(PhaseSparsePayload, 2, 6, 3, Trans2DV); fj != 0 || n != 0 {
		t.Fatal("neighbor wire contaminated")
	}
	if got := p.TotalEnergy(); got != 12 {
		t.Fatalf("TotalEnergy = %v, want 12", got)
	}
	if got := p.PhaseEnergy(PhaseSparsePayload); got != 12 {
		t.Fatalf("PhaseEnergy = %v, want 12", got)
	}
	if got := p.PhaseEnergy(PhaseMTAPayload); got != 0 {
		t.Fatalf("PhaseEnergy(other) = %v, want 0", got)
	}
	if got := p.CodecEnergy(2); got != 12 {
		t.Fatalf("CodecEnergy = %v, want 12", got)
	}
}

func TestProfileOutOfRangeDropped(t *testing.T) {
	p := NewProfile()
	p.Add(Phase(200), 0, 0, 0, Trans0DV, 1, 1)
	p.Add(PhaseLogic, -1, 0, 0, Trans0DV, 1, 1)
	p.Add(PhaseLogic, NumProfileCodecs, 0, 0, Trans0DV, 1, 1)
	p.Add(PhaseLogic, 0, profileWireDim, 0, Trans0DV, 1, 1)
	p.Add(PhaseLogic, 0, 0, profileLevelDim, Trans0DV, 1, 1)
	p.Add(PhaseLogic, 0, 0, 0, TransClass(99), 1, 1)
	if p.TotalEnergy() != 0 || p.TotalSymbols() != 0 {
		t.Fatal("out-of-range sample was recorded")
	}
}

func TestProfileAggregate(t *testing.T) {
	p := NewProfile()
	p.Add(PhaseMTAPayload, ProfileCodecMTA, WireAgg, LevelMix, TransMix, 100, 8)
	fj, n := p.Cell(PhaseMTAPayload, ProfileCodecMTA, WireAgg, LevelMix, TransMix)
	if fj != 100 || n != 8 {
		t.Fatalf("aggregate cell = (%v,%v), want (100,8)", fj, n)
	}
	s := p.Snapshot()
	if len(s.Cells) != 1 {
		t.Fatalf("snapshot cells = %d, want 1", len(s.Cells))
	}
	c := s.Cells[0]
	if c.WireName() != "agg" || c.LevelName() != "mix" || c.Trans != TransMix {
		t.Fatalf("aggregate cell names wrong: %+v", c)
	}
}

func TestProfileCodecIndex(t *testing.T) {
	cases := []struct {
		codeLen, want int
	}{{0, 0}, {3, 1}, {4, 2}, {8, 6}, {1, -1}, {2, -1}, {9, -1}, {-1, -1}}
	for _, c := range cases {
		if got := ProfileCodecIndex(c.codeLen); got != c.want {
			t.Errorf("ProfileCodecIndex(%d) = %d, want %d", c.codeLen, got, c.want)
		}
	}
	names := map[int]string{
		ProfileCodecMTA: "mta", 1: "4b3s", 6: "4b8s",
		ProfileCodecPAM4: "pam4", ProfileCodecPAM4DBI: "pam4-dbi",
	}
	for idx, want := range names {
		if got := ProfileCodecName(idx); got != want {
			t.Errorf("ProfileCodecName(%d) = %q, want %q", idx, got, want)
		}
	}
}

func TestTransOfDelta(t *testing.T) {
	for d, want := range []TransClass{Trans0DV, Trans1DV, Trans2DV, Trans3DV} {
		if got := TransOfDelta(d); got != want {
			t.Errorf("TransOfDelta(%d) = %v, want %v", d, got, want)
		}
	}
	if TransOfDelta(-1) != TransMix || TransOfDelta(4) != TransMix {
		t.Error("out-of-range delta must map to mix")
	}
}

func TestProfileAddZeroAlloc(t *testing.T) {
	p := NewProfile()
	if n := testing.AllocsPerRun(100, func() {
		p.Add(PhaseMTAPayload, 0, 3, 2, Trans1DV, 42.5, 1)
	}); n != 0 {
		t.Fatalf("Add allocates %v per call, want 0", n)
	}
	var nilP *Profile
	if n := testing.AllocsPerRun(100, func() {
		nilP.Add(PhaseMTAPayload, 0, 3, 2, Trans1DV, 42.5, 1)
	}); n != 0 {
		t.Fatalf("nil Add allocates %v per call, want 0", n)
	}
}

func TestProfileSnapshotRollups(t *testing.T) {
	p := NewProfile()
	p.Add(PhaseMTAPayload, ProfileCodecMTA, 0, 3, Trans2DV, 100, 1)
	p.Add(PhaseDBIWire, ProfileCodecMTA, 8, 1, Trans3DV, 50, 1)
	p.Add(PhaseSparsePayload, 2, 4, 0, TransSeam, 25, 1)
	s := p.Snapshot()
	if s.TotalFJ != 175 || s.Symbols != 3 {
		t.Fatalf("snapshot totals (%v,%v), want (175,3)", s.TotalFJ, s.Symbols)
	}
	if s.PhaseFJ[PhaseMTAPayload] != 100 || s.PhaseFJ[PhaseDBIWire] != 50 ||
		s.PhaseFJ[PhaseSparsePayload] != 25 {
		t.Fatalf("phase roll-up wrong: %+v", s.PhaseFJ)
	}
	if s.CodecFJ[ProfileCodecMTA] != 150 || s.CodecFJ[2] != 25 {
		t.Fatalf("codec roll-up wrong: %+v", s.CodecFJ)
	}
	if s.CodecCounts[ProfileCodecMTA] != 2 || s.CodecCounts[2] != 1 {
		t.Fatalf("codec counts wrong: %+v", s.CodecCounts)
	}
	// Snapshot order must be deterministic: phase-major.
	if s.Cells[0].Phase != PhaseMTAPayload || s.Cells[2].Phase != PhaseSparsePayload {
		t.Fatalf("snapshot order wrong: %+v", s.Cells)
	}
}

func TestProfileExportFormats(t *testing.T) {
	p := NewProfile()
	p.Add(PhaseMTAPayload, ProfileCodecMTA, 0, 3, Trans2DV, 100, 1)
	p.Add(PhaseDBIWire, ProfileCodecMTA, 8, 1, Trans3DV, 50, 1)
	p.Add(PhaseLogic, 2, WireAgg, LevelMix, TransMix, 10, 0)
	s := p.Snapshot()

	var js bytes.Buffer
	if err := WriteProfileJSON(&js, s); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TotalFJ float64            `json:"total_fj"`
		PhaseFJ map[string]float64 `json:"phase_fj"`
		Cells   []struct {
			Phase string  `json:"phase"`
			FJ    float64 `json:"fj"`
		} `json:"cells"`
	}
	if err := json.Unmarshal(js.Bytes(), &doc); err != nil {
		t.Fatalf("profile JSON must parse: %v", err)
	}
	if doc.TotalFJ != 160 || len(doc.Cells) != 3 {
		t.Fatalf("JSON doc wrong: total=%v cells=%d", doc.TotalFJ, len(doc.Cells))
	}
	if doc.PhaseFJ["dbi-wire"] != 50 {
		t.Fatalf("JSON phase roll-up wrong: %+v", doc.PhaseFJ)
	}

	var folded bytes.Buffer
	if err := WriteProfileFolded(&folded, s); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(folded.String(), "mta-payload;mta;wire 0;L3;2dv 100") {
		t.Fatalf("folded export wrong:\n%s", folded.String())
	}
}

// TestProfileJSONExactCells: WriteProfileJSON exports every snapshot
// cell exactly — its five coordinate names, including the agg/mix
// pseudo-coordinates, its energy bit for bit, and its symbol count.
func TestProfileJSONExactCells(t *testing.T) {
	p := NewProfile()
	p.Add(PhaseMTAPayload, ProfileCodecMTA, 0, 1, Trans1DV, 0.1+0.2, 1)
	p.Add(PhaseDBIWire, ProfileCodecPAM4DBI, 17, 3, Trans3DV, 7.5, 1)
	p.Add(PhaseSparsePayload, ProfileCodecIndex(5), 9, 0, TransSeam, 12, 1)
	p.Add(PhaseLogic, ProfileCodecPAM4, WireAgg, LevelMix, TransMix, 99.25, 1024)
	p.Add(PhaseReplay, ProfileCodecIndex(8), 3, 2, Trans2DV, 0, 6) // count-only cell
	snap := p.Snapshot()

	var buf bytes.Buffer
	if err := WriteProfileJSON(&buf, snap); err != nil {
		t.Fatal(err)
	}
	var doc profileJSONDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("profile JSON must parse: %v", err)
	}
	if len(snap.Cells) != 5 || len(doc.Cells) != len(snap.Cells) {
		t.Fatalf("exported %d cells for a %d-cell snapshot, want 5", len(doc.Cells), len(snap.Cells))
	}
	for i, c := range snap.Cells {
		wire, level := "agg", "mix"
		if c.Wire != WireAgg {
			wire = strconv.Itoa(c.Wire)
		}
		if c.Level != LevelMix {
			level = "L" + strconv.Itoa(c.Level)
		}
		want := profileJSONCell{
			Phase: c.Phase.String(), Codec: ProfileCodecName(c.Codec),
			Wire: wire, Level: level, Transition: c.Trans.String(),
			FJ: c.FJ, Symbols: c.Count,
		}
		got := doc.Cells[i]
		if got.Phase != want.Phase || got.Codec != want.Codec || got.Wire != want.Wire ||
			got.Level != want.Level || got.Transition != want.Transition ||
			!floats.Eq(got.FJ, want.FJ) || got.Symbols != want.Symbols {
			t.Errorf("cell %d exported as %+v, want %+v", i, got, want)
		}
	}
}

func TestProfileConservationAcrossViews(t *testing.T) {
	p := NewProfile()
	// Spray pseudo-random samples across the table.
	seed := uint64(1)
	next := func() uint64 {
		seed ^= seed << 13
		seed ^= seed >> 7
		seed ^= seed << 17
		return seed
	}
	var want float64
	for i := 0; i < 5000; i++ {
		ph := Phase(next() % NumPhases)
		codec := int(next() % NumProfileCodecs)
		wire := int(next() % profileWireDim)
		level := int(next() % profileLevelDim)
		tc := TransClass(next() % NumTransClasses)
		fj := float64(next()%1000) / 7.0
		p.Add(ph, codec, wire, level, tc, fj, 1)
		want += fj
	}
	tol := want * 1e-12
	if got := p.TotalEnergy(); got < want-tol || got > want+tol {
		t.Fatalf("TotalEnergy = %v, want %v", got, want)
	}
	var phases float64
	for ph := Phase(0); ph < NumPhases; ph++ {
		phases += p.PhaseEnergy(ph)
	}
	if phases < want-tol || phases > want+tol {
		t.Fatalf("sum of PhaseEnergy = %v, want %v", phases, want)
	}
	s := p.Snapshot()
	if s.TotalFJ < want-tol || s.TotalFJ > want+tol {
		t.Fatalf("snapshot TotalFJ = %v, want %v", s.TotalFJ, want)
	}
	if s.Symbols != 5000 || p.TotalSymbols() != 5000 {
		t.Fatalf("symbols %d / %d, want 5000", s.Symbols, p.TotalSymbols())
	}
}
