package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"testing"

	"smores/internal/floats"
)

// addSymbol records one symbol through a one-wire row.
func addSymbol(p *Profile, ph Phase, codec, wire, level int, tc TransClass, fj float64) {
	p.Row(ph, codec, wire, 1).Add(0, SymbolCell(level, tc), fj)
}

// published publishes tally t into a fresh profile and returns it.
func published(t *Profile) *Profile {
	p := NewProfile()
	t.Publish(p)
	return p
}

// cellAt returns one snapshot cell's energy and symbol count (zero when
// the snapshot has no such cell).
func cellAt(s ProfileSnapshot, ph Phase, codec, wire, level int, tc TransClass) (float64, int64) {
	for _, c := range s.Cells {
		if c.Phase == ph && c.Codec == codec && c.Wire == wire && c.Level == level && c.Trans == tc {
			return c.FJ, c.Count
		}
	}
	return 0, 0
}

func TestProfileNilSafety(t *testing.T) {
	var p *Profile
	p.Row(PhaseMTAPayload, 0, 0, ProfileWires).Add(0, SymbolCell(0, Trans0DV), 1)
	p.AddAggregate(PhaseLogic, 0, 1, 1)
	p.Publish(NewProfile())
	NewTally(true).Publish(p)
	if p.TotalEnergy() != 0 || p.TotalSymbols() != 0 || p.PhaseEnergy(PhaseLogic) != 0 {
		t.Fatal("nil profile totals nonzero")
	}
	if s := p.Snapshot(); len(s.Cells) != 0 {
		t.Fatal("nil profile snapshot has cells")
	}
}

func TestTallyNilSafety(t *testing.T) {
	var tl *Profile
	p := NewProfile()
	tl.Publish(p)
	if n := len(p.Snapshot().Cells); n != 0 {
		t.Fatalf("nil tally published %d cells", n)
	}
	// A tally without per-symbol cells drops per-symbol samples.
	agg := NewTally(false)
	if row := agg.Row(PhaseMTAPayload, 0, 0, ProfileWires); row.cells != nil {
		t.Fatal("an aggregate-only tally handed out a per-symbol row")
	}
	agg.Publish(nil)
}

func TestProfileCellRoundTrip(t *testing.T) {
	tl := NewTally(true)
	addSymbol(tl, PhaseSparsePayload, 2, 5, 3, Trans2DV, 10.5)
	addSymbol(tl, PhaseSparsePayload, 2, 5, 3, Trans2DV, 1.5)
	p := published(tl)
	s := p.Snapshot()
	if fj, n := cellAt(s, PhaseSparsePayload, 2, 5, 3, Trans2DV); fj != 12 || n != 2 {
		t.Fatalf("cell = (%v,%v), want (12,2)", fj, n)
	}
	// Neighboring cells must stay empty.
	if len(s.Cells) != 1 {
		t.Fatalf("snapshot has %d cells, want 1: %+v", len(s.Cells), s.Cells)
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
}

func TestProfileOutOfRangeDropped(t *testing.T) {
	tl := NewTally(true)
	cell := SymbolCell(0, Trans0DV)
	tl.Row(Phase(200), 0, 0, 1).Add(0, cell, 1)
	tl.Row(PhaseLogic, -1, 0, 1).Add(0, cell, 1)
	tl.Row(PhaseLogic, NumProfileCodecs, 0, 1).Add(0, cell, 1)
	tl.Row(PhaseLogic, 0, ProfileWires, 1).Add(0, cell, 1)
	tl.Row(PhaseLogic, 0, ProfileWires-1, 2).Add(0, cell, 1)
	row := tl.Row(PhaseLogic, 0, 0, 2)
	row.Add(-1, cell, 1)
	row.Add(2, cell, 1)
	row.Add(0, SymbolCell(ProfileLevels, Trans0DV), 1)
	row.Add(0, SymbolCell(0, TransMix), 1)
	row.Add(0, SymbolCells, 1)
	tl.AddAggregate(Phase(200), 0, 1, 1)
	tl.AddAggregate(PhaseLogic, -1, 1, 1)
	tl.AddAggregate(PhaseLogic, NumProfileCodecs, 1, 1)
	if p := published(tl); p.TotalEnergy() != 0 || p.TotalSymbols() != 0 {
		t.Fatal("out-of-range sample was recorded")
	}
}

func TestProfileAggregate(t *testing.T) {
	tl := NewTally(false)
	tl.AddAggregate(PhaseMTAPayload, ProfileCodecMTA, 100, 8)
	s := published(tl).Snapshot()
	if len(s.Cells) != 1 {
		t.Fatalf("snapshot cells = %d, want 1", len(s.Cells))
	}
	c := s.Cells[0]
	if c.FJ != 100 || c.Count != 8 {
		t.Fatalf("aggregate cell = (%v,%v), want (100,8)", c.FJ, c.Count)
	}
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
		NumProfileCodecs: "codec(7)", -1: "codec(-1)",
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

// SymbolCell numbers each (level, per-symbol class) pair once within
// a wire's cells and refuses every other pair.
func TestSymbolCell(t *testing.T) {
	seen := make([]bool, SymbolCells)
	for level := -1; level <= ProfileLevels; level++ {
		for tc := TransClass(0); tc < NumTransClasses; tc++ {
			c := SymbolCell(level, tc)
			valid := level >= 0 && level < ProfileLevels && tc <= TransSeam
			if !valid {
				if c != -1 {
					t.Errorf("SymbolCell(%d, %v) = %d, want -1", level, tc, c)
				}
				continue
			}
			if c < 0 || c >= SymbolCells || seen[c] {
				t.Fatalf("SymbolCell(%d, %v) = %d: out of range or taken", level, tc, c)
			}
			seen[c] = true
		}
	}
}

func TestTallyAddZeroAlloc(t *testing.T) {
	tl := NewTally(true)
	cell := SymbolCell(2, Trans1DV)
	if n := testing.AllocsPerRun(100, func() {
		row := tl.Row(PhaseMTAPayload, 0, 9, 9)
		row.Add(3, cell, 42.5)
		row.Add(8, cell, 42.5)
		tl.AddAggregate(PhaseLogic, 1, 7, 0)
	}); n != 0 {
		t.Fatalf("tally adds allocate %v per call, want 0", n)
	}
	var nilP *Profile
	if n := testing.AllocsPerRun(100, func() {
		nilP.Row(PhaseMTAPayload, 0, 3, 1).Add(0, cell, 42.5)
		nilP.AddAggregate(PhaseLogic, 1, 7, 0)
	}); n != 0 {
		t.Fatalf("nil adds allocate %v per call, want 0", n)
	}
}

// Adding a run's samples into a shared profile — taking a pooled tally,
// feeding it and publishing it — allocates nothing once the profile has
// its per-symbol cells.
func TestProfileAddZeroAlloc(t *testing.T) {
	p := NewProfile()
	NewTally(true).Publish(p)
	cell := SymbolCell(2, Trans1DV)
	if n := testing.AllocsPerRun(100, func() {
		tl := NewTally(true)
		tl.Row(PhaseMTAPayload, 0, 3, 1).Add(0, cell, 42.5)
		tl.AddAggregate(PhaseLogic, 1, 7, 0)
		tl.Publish(p)
	}); n != 0 {
		t.Fatalf("a tally round trip allocates %v per run, want 0", n)
	}
}

// A published tally goes back to its pool empty: whatever NewTally hands
// out next publishes nothing until it is fed.
func TestTallyPublishZeroes(t *testing.T) {
	for _, perSymbol := range []bool{false, true} {
		tl := NewTally(perSymbol)
		tl.AddAggregate(PhaseLogic, 2, 10, 4)
		addSymbol(tl, PhaseMTAPayload, 0, 3, 2, Trans1DV, 42.5)
		tl.Publish(NewProfile())
		for i := 0; i < 4; i++ {
			next := NewTally(perSymbol)
			if (next.sym != nil) != perSymbol {
				t.Fatalf("perSymbol=%v: pool handed out a tally of the other kind", perSymbol)
			}
			if n := len(published(next).Snapshot().Cells); n != 0 {
				t.Fatalf("perSymbol=%v: a fresh tally published %d cells", perSymbol, n)
			}
		}
	}
}

// Expected-mode runs feed aggregate cells only, so a profile that only
// they publish into never allocates per-symbol cells.
func TestAggregateTalliesLeaveNoSymbolCells(t *testing.T) {
	p := NewProfile()
	for i := 0; i < 3; i++ {
		tl := NewTally(false)
		tl.AddAggregate(PhaseLogic, i, 10, 4)
		tl.Publish(p)
	}
	if p.sym != nil {
		t.Fatal("aggregate-only publishes allocated per-symbol cells")
	}
	if got := p.TotalSymbols(); got != 12 {
		t.Fatalf("TotalSymbols = %d, want 12", got)
	}
}

// oracleKey is a cell key of the map oracle.
type oracleKey struct {
	ph                 Phase
	codec, wire, level int
	tc                 TransClass
}

// Publishing tallies must yield, bit for bit, what a map oracle says:
// each tally sums a key's accepted samples in arrival order, and the
// profile adds the tallies' sums, each only when positive, in publish
// order. Aggregate samples include zero and negative energies and zero
// counts, which are dropped; per-symbol samples go through rows of random
// position and width and include keys outside the per-symbol cells and
// wires outside their row, which are dropped too.
func TestPublishMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	p := NewProfile()
	want := map[oracleKey]cell{}
	for range 3 {
		tl := NewTally(true)
		sums := map[oracleKey]cell{}
		for k := 0; k < 20000; k++ {
			ph := Phase(rng.Intn(NumPhases))
			codec := rng.Intn(NumProfileCodecs)
			if rng.Intn(4) == 0 {
				fj := rng.Float64() * 50
				n := rng.Int63n(3)
				switch rng.Intn(4) {
				case 0:
					fj = 0
				case 1:
					fj = -fj
				}
				tl.AddAggregate(ph, codec, fj, n)
				key := oracleKey{ph, codec, WireAgg, LevelMix, TransMix}
				c := sums[key]
				c.add(fj, n)
				sums[key] = c
				continue
			}
			first := rng.Intn(ProfileWires + 2)
			wires := rng.Intn(ProfileWires + 1)
			w, level := rng.Intn(wires+2)-1, rng.Intn(ProfileLevels+1)
			tc := TransClass(rng.Intn(int(TransSeam) + 2))
			fj := float64(rng.Intn(8)) * 31.7 // includes zero-energy symbols
			tl.Row(ph, codec, first, wires).Add(w, SymbolCell(level, tc), fj)
			if first+wires <= ProfileWires && w >= 0 && w < wires && level < ProfileLevels && tc <= TransSeam {
				key := oracleKey{ph, codec, first + w, level, tc}
				c := sums[key]
				c.fj += fj
				c.n++
				sums[key] = c
			}
		}
		tl.Publish(p)
		for key, s := range sums {
			c := want[key]
			c.add(s.fj, s.n)
			want[key] = c
		}
	}
	got := p.Snapshot().Cells
	if len(got) < 1000 {
		t.Fatalf("only %d cells — the test is vacuous", len(got))
	}
	n := 0
	for _, c := range want {
		if !c.empty() {
			n++
		}
	}
	if len(got) != n {
		t.Fatalf("published %d cells, want %d", len(got), n)
	}
	for i, g := range got {
		key := oracleKey{g.Phase, g.Codec, g.Wire, g.Level, g.Trans}
		if w := want[key]; !floats.Eq(g.FJ, w.fj) || g.Count != w.n {
			t.Fatalf("cell %d %+v, want (%v, %d)", i, g, w.fj, w.n)
		}
		if i > 0 && !keyLess(got[i-1], g) {
			t.Fatalf("snapshot cells %d and %d out of key order", i-1, i)
		}
	}
}

// keyLess orders snapshot cells by (phase, codec, wire, level, class).
func keyLess(a, b ProfileCell) bool {
	ka := [5]int{int(a.Phase), a.Codec, a.Wire, a.Level, int(a.Trans)}
	kb := [5]int{int(b.Phase), b.Codec, b.Wire, b.Level, int(b.Trans)}
	for i := range ka {
		if ka[i] != kb[i] {
			return ka[i] < kb[i]
		}
	}
	return false
}

// Publishes and reads of one shared profile may run concurrently (make
// race runs this under the race detector). Every energy is a whole
// number of femtojoules, so the float sums are exact in any publish
// order and the final cells must equal the exact totals.
func TestPublishConcurrentWithSnapshots(t *testing.T) {
	const writers, tallies = 4, 25
	p := NewProfile()
	done := make(chan struct{})
	var reads sync.WaitGroup
	reads.Add(1)
	go func() {
		defer reads.Done()
		for {
			select {
			case <-done:
				return
			default:
				// A publish lands whole: writer w's i-th publish adds
				// i+1 fJ and one symbol to its aggregate cell.
				s := p.Snapshot()
				for w := range writers {
					if fj, n := cellAt(s, PhaseLogic, w, WireAgg, LevelMix, TransMix); fj != float64(n*(n+1)/2) {
						t.Errorf("writer %d aggregate cell read as (%v, %d)", w, fj, n)
					}
				}
				p.TotalEnergy()
			}
		}
	}()
	var pubs sync.WaitGroup
	for w := range writers {
		pubs.Add(1)
		go func() {
			defer pubs.Done()
			for i := range tallies {
				tl := NewTally(w%2 == 0)
				tl.AddAggregate(PhaseLogic, w, float64(i+1), 1)
				addSymbol(tl, PhaseMTAPayload, 0, w, 2, Trans1DV, 3)
				tl.Publish(p)
			}
		}()
	}
	pubs.Wait()
	close(done)
	reads.Wait()
	s := p.Snapshot()
	for w := range writers {
		if fj, n := cellAt(s, PhaseLogic, w, WireAgg, LevelMix, TransMix); fj != tallies*(tallies+1)/2 || n != tallies {
			t.Errorf("writer %d aggregate cell = (%v, %d), want (%v, %d)", w, fj, n, tallies*(tallies+1)/2, tallies)
		}
		wantFJ, wantN := 0.0, int64(0)
		if w%2 == 0 {
			wantFJ, wantN = 3*tallies, tallies
		}
		if fj, n := cellAt(s, PhaseMTAPayload, 0, w, 2, Trans1DV); fj != wantFJ || n != wantN {
			t.Errorf("writer %d symbol cell = (%v, %d), want (%v, %d)", w, fj, n, wantFJ, wantN)
		}
	}
}

// denseSums returns the compensated sums TotalEnergy and PhaseEnergy
// are defined as: over every key of the dense grid — nine codec slots ×
// (18 wires + agg) × (4 levels + mix) × 6 classes per phase — in key
// order, empty keys included.
func denseSums(s ProfileSnapshot) (total float64, phase [NumPhases]float64) {
	const codecSlots = 9
	var grid [NumPhases][codecSlots * (WireAgg + 1) * (LevelMix + 1) * NumTransClasses]float64
	for _, c := range s.Cells {
		grid[c.Phase][((c.Codec*(WireAgg+1)+c.Wire)*(LevelMix+1)+c.Level)*NumTransClasses+int(c.Trans)] = c.FJ
	}
	var all kahan
	for ph, keys := range grid {
		var k kahan
		for _, fj := range keys {
			all.add(fj)
			k.add(fj)
		}
		phase[ph] = k.sum
	}
	return all.sum, phase
}

// TotalEnergy and PhaseEnergy equal, bit for bit, the compensated sums
// over the dense key grid, with or without per-symbol cells. Each trial
// fills most aggregate cells of the first and last phase, and most
// per-symbol cells of their first two wires under the first and last
// codec, in key order, with energies that grow by one or two binades a
// cell: each then outweighs the running sum, which is when a compensated
// sum's last bit depends on the empty keys between its terms.
func TestProfileTotalsMatchDenseSum(t *testing.T) {
	// The empty mix-class key between one level's seam cell and the next
	// level's 0ΔV cell moves this sum's last bit.
	tl := NewTally(true)
	addSymbol(tl, PhaseMTAPayload, 0, 0, 0, Trans3DV, 6.051127032444326)
	addSymbol(tl, PhaseMTAPayload, 0, 0, 0, TransSeam, 26.448643282165772)
	addSymbol(tl, PhaseMTAPayload, 0, 0, 1, Trans0DV, 52.93664430157267)
	p := published(tl)
	if want, _ := denseSums(p.Snapshot()); p.TotalEnergy() != want {
		t.Fatalf("TotalEnergy = %v, dense sum %v", p.TotalEnergy(), want)
	}
	rng := rand.New(rand.NewSource(3))
	for trial := range 200 {
		tl := NewTally(trial%2 == 0)
		exp := -20
		fill := func() (float64, bool) {
			exp += 1 + rng.Intn(2)
			return math.Ldexp(1+rng.Float64(), exp), rng.Intn(4) != 0
		}
		for _, ph := range []Phase{0, NumPhases - 1} {
			for codec := range NumProfileCodecs {
				for wire := 0; wire < 2 && (codec == 0 || codec == NumProfileCodecs-1); wire++ {
					for level := range ProfileLevels {
						for tc := range TransSeam + 1 {
							if fj, ok := fill(); ok {
								addSymbol(tl, ph, codec, wire, level, tc, fj)
							}
						}
					}
				}
				if fj, ok := fill(); ok {
					tl.AddAggregate(ph, codec, fj, 1)
				}
			}
		}
		p := published(tl)
		total, phase := denseSums(p.Snapshot())
		if got := p.TotalEnergy(); math.Float64bits(got) != math.Float64bits(total) {
			t.Fatalf("trial %d: TotalEnergy = %v, dense sum %v", trial, got, total)
		}
		for ph := Phase(0); ph < NumPhases; ph++ {
			if got := p.PhaseEnergy(ph); math.Float64bits(got) != math.Float64bits(phase[ph]) {
				t.Fatalf("trial %d: PhaseEnergy(%v) = %v, dense sum %v", trial, ph, got, phase[ph])
			}
		}
	}
}

// TestProfileMergeConserves checks the roll-up of publishing several
// tallies into one profile: cell-wise sums and therefore total-energy
// conservation.
func TestProfileMergeConserves(t *testing.T) {
	a := func() *Profile {
		tl := NewTally(true)
		addSymbol(tl, PhaseMTAPayload, ProfileCodecMTA, 0, 1, Trans1DV, 100)
		tl.AddAggregate(PhaseLogic, ProfileCodecIndex(8), 7, 1)
		return tl
	}
	b := func() *Profile {
		tl := NewTally(true)
		addSymbol(tl, PhaseMTAPayload, ProfileCodecMTA, 0, 1, Trans1DV, 50)
		addSymbol(tl, PhaseReplay, ProfileCodecIndex(3), 4, 2, Trans2DV, 11)
		return tl
	}
	sum := NewProfile()
	a().Publish(sum)
	b().Publish(sum)
	pa, pb := published(a()), published(b())
	if fj, n := cellAt(sum.Snapshot(), PhaseMTAPayload, ProfileCodecMTA, 0, 1, Trans1DV); !floats.Eq(fj, 150) || n != 2 {
		t.Errorf("merged cell = (%v, %d), want (150, 2)", fj, n)
	}
	if !floats.Eq(sum.TotalEnergy(), pa.TotalEnergy()+pb.TotalEnergy()) {
		t.Errorf("total energy %v != %v + %v", sum.TotalEnergy(), pa.TotalEnergy(), pb.TotalEnergy())
	}
	if sum.TotalSymbols() != pa.TotalSymbols()+pb.TotalSymbols() {
		t.Errorf("symbols not conserved")
	}
	var nilTally *Profile
	nilTally.Publish(sum)
	NewTally(true).Publish(sum)
	if !floats.Eq(sum.TotalEnergy(), pa.TotalEnergy()+pb.TotalEnergy()) {
		t.Errorf("nil and empty publishes changed totals")
	}
}

func TestProfileSnapshotRollups(t *testing.T) {
	tl := NewTally(true)
	addSymbol(tl, PhaseMTAPayload, ProfileCodecMTA, 0, 3, Trans2DV, 100)
	addSymbol(tl, PhaseDBIWire, ProfileCodecMTA, 8, 1, Trans3DV, 50)
	addSymbol(tl, PhaseSparsePayload, 2, 4, 0, TransSeam, 25)
	s := published(tl).Snapshot()
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
	tl := NewTally(true)
	addSymbol(tl, PhaseMTAPayload, ProfileCodecMTA, 0, 3, Trans2DV, 100)
	addSymbol(tl, PhaseDBIWire, ProfileCodecMTA, 8, 1, Trans3DV, 50)
	tl.AddAggregate(PhaseLogic, 2, 10, 0)
	s := published(tl).Snapshot()

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
	tl := NewTally(true)
	addSymbol(tl, PhaseMTAPayload, ProfileCodecMTA, 0, 1, Trans1DV, 0.1+0.2)
	addSymbol(tl, PhaseDBIWire, ProfileCodecIndex(7), 17, 3, Trans3DV, 7.5)
	addSymbol(tl, PhaseSparsePayload, ProfileCodecIndex(5), 9, 0, TransSeam, 12)
	tl.AddAggregate(PhaseLogic, ProfileCodecIndex(3), 99.25, 1024)
	for range 6 { // count-only cell
		addSymbol(tl, PhaseReplay, ProfileCodecIndex(8), 3, 2, Trans2DV, 0)
	}
	snap := published(tl).Snapshot()

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
	tl := NewTally(true)
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
		fj := float64(next()%1000) / 7.0
		if next()%4 == 0 {
			tl.AddAggregate(ph, codec, fj, 1)
		} else {
			addSymbol(tl, ph, codec, int(next()%ProfileWires), int(next()%ProfileLevels), TransClass(next()%uint64(TransSeam+1)), fj)
		}
		want += fj
	}
	p := published(tl)
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
