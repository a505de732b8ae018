package core

import (
	"math"
	"math/rand"
	"testing"

	"smores/internal/codec"
	"smores/internal/mta"
	"smores/internal/pam4"
)

func approx(t *testing.T, name string, got, want, tolPct float64) {
	t.Helper()
	if math.Abs(got-want)/math.Abs(want)*100 > tolPct {
		t.Errorf("%s = %g, want %g (±%g%%)", name, got, want, tolPct)
	}
}

func allCodecs(t *testing.T) []*SparseGroupCodec {
	t.Helper()
	m := pam4.DefaultEnergyModel()
	var out []*SparseGroupCodec
	for _, dbi := range []bool{false, true} {
		for _, pf := range []bool{false, true} {
			fam, err := NewFamily(m, FamilyConfig{DBI: dbi, Levels: 3, PaperFaithful: pf})
			if err != nil {
				t.Fatal(err)
			}
			for _, n := range fam.Lengths() {
				out = append(out, fam.ByLength(n))
			}
		}
		fam2, err := NewFamily(m, FamilyConfig{DBI: dbi, Levels: 2})
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range fam2.Lengths() {
			out = append(out, fam2.ByLength(n))
		}
	}
	return out
}

func randomState(rng *rand.Rand) mta.GroupState {
	var st mta.GroupState
	for i := range st {
		st[i] = pam4.Level(rng.Intn(int(pam4.NumLevels)))
	}
	return st
}

func randomBurst(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	rng.Read(b)
	return b
}

func TestSparseRoundTripAllCodecs(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, c := range allCodecs(t) {
		for trial := 0; trial < 50; trial++ {
			data := randomBurst(rng, 16)
			st := randomState(rng)
			enc, dec := st, st
			cols, err := c.EncodeGroupBurst(data, &enc)
			if err != nil {
				t.Fatalf("%s: %v", c.Name(), err)
			}
			if len(cols) != c.BurstUIs(len(data)) {
				t.Fatalf("%s: %d columns, want %d", c.Name(), len(cols), c.BurstUIs(len(data)))
			}
			got, ok := c.DecodeGroupBurst(cols, len(data), &dec)
			if !ok {
				t.Fatalf("%s trial %d: decode failed", c.Name(), trial)
			}
			if string(got) != string(data) {
				t.Fatalf("%s trial %d: data mismatch", c.Name(), trial)
			}
			if enc != dec {
				t.Fatalf("%s trial %d: state diverged", c.Name(), trial)
			}
		}
	}
}

// TestSparseNo3DV drives random bursts from every possible seam state and
// checks that no wire ever steps by 3ΔV, including the seam symbol.
func TestSparseNo3DV(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, c := range allCodecs(t) {
		for trial := 0; trial < 30; trial++ {
			st := randomState(rng)
			prev := st
			cols, err := c.EncodeGroupBurst(randomBurst(rng, 16), &st)
			if err != nil {
				t.Fatal(err)
			}
			for ui, col := range cols {
				for w := range col {
					if pam4.Delta(prev[w], col[w]) > pam4.MaxTransition {
						t.Fatalf("%s: 3ΔV on wire %d at UI %d (%v→%v)",
							c.Name(), w, ui, prev[w], col[w])
					}
					prev[w] = col[w]
				}
			}
		}
	}
}

// TestLevelShiftCascadeBound verifies the paper's claim that, without DBI,
// level shifting affects at most two successive symbols (no code starts
// L2L2), and that L3 never appears except through shifting.
func TestLevelShiftCascadeBound(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	fam, err := NewFamily(pam4.DefaultEnergyModel(), FamilyConfig{DBI: false, Levels: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range fam.Lengths() {
		c := fam.ByLength(n)
		for trial := 0; trial < 40; trial++ {
			st := mta.GroupState{}
			for i := range st {
				st[i] = pam4.L3 // worst case: every wire just ended an MTA burst at L3
			}
			cols, err := c.EncodeGroupBurst(randomBurst(rng, 16), &st)
			if err != nil {
				t.Fatal(err)
			}
			for w := 0; w < mta.GroupWires; w++ {
				shifted := 0
				for ui := 0; ui < len(cols); ui++ {
					if cols[ui][w] == pam4.L3 {
						shifted++
						if ui > 1 {
							t.Fatalf("%s wire %d: L3 (shift cascade) at UI %d", c.Name(), w, ui)
						}
					}
				}
				if shifted > 2 {
					t.Fatalf("%s wire %d: cascade length %d > 2", c.Name(), w, shifted)
				}
			}
		}
	}
}

func TestSparseEncodeValidation(t *testing.T) {
	c := DefaultFamily().Shortest()
	st := mta.GroupState{}
	if _, err := c.EncodeGroupBurst(nil, &st); err == nil {
		t.Error("empty burst must error")
	}
	if _, err := c.EncodeGroupBurst(make([]byte, 12), &st); err == nil {
		t.Error("non-multiple-of-8 burst must error")
	}
	if _, ok := c.DecodeGroupBurst(nil, 16, &st); ok {
		t.Error("empty columns must fail decode")
	}
	if _, ok := c.DecodeGroupBurst(make([]mta.Column, 5), 16, &st); ok {
		t.Error("wrong column count must fail decode")
	}
	if _, ok := c.DecodeGroupBurst(make([]mta.Column, c.BurstUIs(16)), 12, &st); ok {
		t.Error("bad data length must fail decode")
	}
}

func TestDecodeFailureLeavesStateUntouched(t *testing.T) {
	c := DefaultFamily().Shortest()
	st := mta.GroupState{}
	cols := make([]mta.Column, c.BurstUIs(16))
	for i := range cols {
		// L3 on the DBI wire is invalid metadata (no level shift applies
		// from an idle seam), so the decode must fail.
		cols[i] = mta.UniformColumn(pam4.L3)
	}
	before := st
	if _, ok := c.DecodeGroupBurst(cols, 16, &st); ok {
		t.Fatal("garbage decoded")
	}
	if st != before {
		t.Error("state mutated on failed decode")
	}
}

func TestNonDBICodecRejectsForeignDBIWire(t *testing.T) {
	fam, err := NewFamily(pam4.DefaultEnergyModel(), FamilyConfig{DBI: false, Levels: 3})
	if err != nil {
		t.Fatal(err)
	}
	c := fam.Shortest()
	st := mta.GroupState{}
	cols, err := c.EncodeGroupBurst(make([]byte, 16), &st)
	if err != nil {
		t.Fatal(err)
	}
	cols[0][mta.DBIWire] = pam4.L1
	dec := mta.GroupState{}
	if _, ok := c.DecodeGroupBurst(cols, 16, &dec); ok {
		t.Error("non-DBI codec accepted a driven DBI wire")
	}
}

func TestNewSparseGroupCodecRejectsWrongInputWidth(t *testing.T) {
	m := pam4.DefaultEnergyModel()
	book, err := codec.Generate(codec.Spec{InputBits: 2, OutputSymbols: 2, Levels: 3}, m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewSparseGroupCodec(book, false, m); err == nil {
		t.Error("2-bit codebook must be rejected")
	}
}

func TestCodecNameAndBurstUIs(t *testing.T) {
	fam := DefaultFamily()
	c := fam.ByLength(3)
	if c.Name() != "4b3s-3/DBI" {
		t.Errorf("Name = %q", c.Name())
	}
	if c.BurstUIs(16) != 12 {
		t.Errorf("BurstUIs(16) = %d, want 12 (3 command clocks)", c.BurstUIs(16))
	}
	if fam.ByLength(8).BurstUIs(16) != 32 {
		t.Errorf("4b8s BurstUIs(16) = %d, want 32", fam.ByLength(8).BurstUIs(16))
	}
	noDBI, err := NewFamily(pam4.DefaultEnergyModel(), FamilyConfig{DBI: false, Levels: 3})
	if err != nil {
		t.Fatal(err)
	}
	if noDBI.Shortest().Name() != "4b3s-3" {
		t.Errorf("Name = %q", noDBI.Shortest().Name())
	}
}

// TestExpectedPerBitMatchesMonteCarlo validates the closed-form DBI
// expectation against the real encoder on random data from an idle seam.
func TestExpectedPerBitMatchesMonteCarlo(t *testing.T) {
	m := pam4.DefaultEnergyModel()
	rng := rand.New(rand.NewSource(5))
	for _, dbi := range []bool{false, true} {
		fam, err := NewFamily(m, FamilyConfig{DBI: dbi, Levels: 3, PaperFaithful: true})
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{3, 4, 6, 8} {
			c := fam.ByLength(n)
			var joules float64
			var bits float64
			st := mta.GroupState{} // idle seam: no shifting energy
			for trial := 0; trial < 400; trial++ {
				data := randomBurst(rng, 16)
				cols, err := c.EncodeGroupBurst(data, &st)
				if err != nil {
					t.Fatal(err)
				}
				for _, col := range cols {
					for _, l := range col {
						joules += m.SymbolEnergy(l)
					}
				}
				bits += float64(len(data)) * 8
			}
			got := joules / bits
			approx(t, c.Name()+" MC vs expected", got, c.ExpectedPerBit(), 1.0)
		}
	}
}

// TestTableIVSparseEnergies pins the wire-only energies of the Table IV
// sparse rows. The paper's published numbers include ≈7 fJ/bit of codec
// logic; the wire-only targets below are paper − 7.
func TestTableIVSparseEnergies(t *testing.T) {
	m := pam4.DefaultEnergyModel()
	plain, err := NewFamily(m, FamilyConfig{DBI: false, Levels: 3, PaperFaithful: true})
	if err != nil {
		t.Fatal(err)
	}
	withDBI, err := NewFamily(m, FamilyConfig{DBI: true, Levels: 3, PaperFaithful: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{3, 4, 6, 8} {
		p := plain.ByLength(n).ExpectedPerBit()
		d := withDBI.ByLength(n).ExpectedPerBit()
		t.Logf("4b%ds-3: plain %.1f fJ/bit, DBI %.1f fJ/bit", n, p, d)
		if d > p+1e-9 {
			t.Errorf("4b%ds-3: DBI (%.1f) worse than plain (%.1f)", n, d, p)
		}
	}
	approx(t, "4b3s-3 wire-only", plain.ByLength(3).ExpectedPerBit(), 448.4-7, 1.0)
	approx(t, "4b4s-3 wire-only", plain.ByLength(4).ExpectedPerBit(), 382.5-7, 1.0)
	approx(t, "4b6s-3 wire-only", plain.ByLength(6).ExpectedPerBit(), 331.8-7, 1.0)
	approx(t, "4b8s-3 wire-only", plain.ByLength(8).ExpectedPerBit(), 319.8-7, 1.0)
}

func TestFamilyConstruction(t *testing.T) {
	fam := DefaultFamily()
	if got := fam.Lengths(); len(got) != 6 || got[0] != 3 || got[5] != 8 {
		t.Errorf("Lengths = %v", got)
	}
	if fam.Shortest().Book().Spec().OutputSymbols != 3 {
		t.Error("Shortest is not 4b3s")
	}
	if fam.Longest().Book().Spec().OutputSymbols != 8 {
		t.Error("Longest is not 4b8s")
	}
	if fam.ByLength(2) != nil || fam.ByLength(9) != nil {
		t.Error("out-of-range lengths must be nil")
	}
	if !fam.Config().DBI || fam.Model() == nil {
		t.Error("config/model accessors broken")
	}

	two, err := NewFamily(pam4.DefaultEnergyModel(), FamilyConfig{Levels: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := two.Lengths(); got[0] != 4 {
		t.Errorf("2-level family must start at 4 symbols, got %v", got)
	}
	if _, err := NewFamily(pam4.DefaultEnergyModel(), FamilyConfig{Levels: 5}); err == nil {
		t.Error("invalid level count must error")
	}
}

// TestPaperFaithfulLength8UsesOneNonZero confirms the preset swap.
func TestPaperFaithfulLength8UsesOneNonZero(t *testing.T) {
	fam := DefaultFamily()
	if got := fam.ByLength(8).Book().Spec().Strategy; got != codec.OneNonZero {
		t.Errorf("paper-faithful length-8 strategy = %v", got)
	}
	free, err := NewFamily(pam4.DefaultEnergyModel(), FamilyConfig{DBI: true, Levels: 3, PaperFaithful: false})
	if err != nil {
		t.Fatal(err)
	}
	if got := free.ByLength(8).Book().Spec().Strategy; got != codec.LowestEnergy {
		t.Errorf("unconstrained length-8 strategy = %v", got)
	}
	// The unconstrained code must be at least as cheap on the wire.
	if free.ByLength(8).ExpectedPerBit() > fam.ByLength(8).ExpectedPerBit()+1e-9 {
		t.Error("lowest-energy 4b8s should not cost more than one-nonzero")
	}
}

// refAppendGroupBurst is the sparse encoder as a plain loop: each wire's
// code word from the codebook, the branching DBI count rule, then level
// shifting symbol by symbol. AppendGroupBurst must equal it.
func refAppendGroupBurst(c *SparseGroupCodec, dst []mta.Column, data []byte, state *mta.GroupState) []mta.Column {
	n := c.Book().Spec().OutputSymbols
	for slot := 0; slot < len(data)/BytesPerSlot*2; slot++ {
		byteIdx := slot / 2 * BytesPerSlot
		shift := uint(slot % 2 * NibbleBits)
		for ui := 0; ui < n; ui++ {
			var col mta.Column
			for w := 0; w < mta.GroupDataWires; w++ {
				col[w] = c.Book().Encode(data[byteIdx+w] >> shift & 0x0f).At(ui)
			}
			if c.DBI() {
				col = refApplyDBISwap(col)
			}
			for w := range col {
				if state[w] == pam4.L3 {
					col[w] = col[w].ShiftUp()
				}
				state[w] = col[w]
			}
			dst = append(dst, col)
		}
	}
	return dst
}

// AppendGroupBurst equals the reference encoder, columns and advanced
// state, for every codec of every family (DBI on and off), on random
// payloads of one to four slots, from random trailing states and from
// states holding an L3 on each wire in turn and on all of them, and it
// keeps whatever dst already held.
func TestAppendGroupBurstMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20261018))
	for _, c := range allCodecs(t) {
		for trial := 0; trial < 3*(mta.GroupWires+1); trial++ {
			data := randomBurst(rng, BytesPerSlot*(1+rng.Intn(4)))
			st := randomState(rng)
			switch w := trial % (mta.GroupWires + 1); w {
			case mta.GroupWires:
				st = mta.GroupState{}
				for i := range st {
					st[i] = pam4.L3
				}
			default:
				st[w] = pam4.L3
			}
			prefix := []mta.Column{mta.IdleColumn(), mta.PostambleColumn()}
			gotSt, wantSt := st, st
			got, err := c.AppendGroupBurst(append([]mta.Column(nil), prefix...), data, &gotSt)
			if err != nil {
				t.Fatalf("%s: %v", c.Name(), err)
			}
			want := refAppendGroupBurst(c, append([]mta.Column(nil), prefix...), data, &wantSt)
			if len(got) != len(want) {
				t.Fatalf("%s trial %d: %d columns, reference %d", c.Name(), trial, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s trial %d column %d: %v, reference %v (data %x, state %v)",
						c.Name(), trial, i, got[i], want[i], data, st)
				}
			}
			if gotSt != wantSt {
				t.Fatalf("%s trial %d: state %v, reference %v", c.Name(), trial, gotSt, wantSt)
			}
		}
	}
}
