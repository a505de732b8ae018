package obs

import (
	"testing"

	"smores/internal/floats"
)

// TestProfileMergeConserves checks the profile roll-up: cell-wise sums
// and therefore total-energy conservation.
func TestProfileMergeConserves(t *testing.T) {
	a := NewProfile()
	a.Add(PhaseMTAPayload, ProfileCodecMTA, 0, 1, Trans1DV, 100, 3)
	a.Add(PhaseLogic, ProfileCodecPAM4, WireAgg, LevelMix, TransMix, 7, 1)
	b := NewProfile()
	b.Add(PhaseMTAPayload, ProfileCodecMTA, 0, 1, Trans1DV, 50, 2)
	b.Add(PhaseReplay, ProfileCodecIndex(3), 4, 2, Trans2DV, 11, 1)

	sum := NewProfile()
	sum.Merge(a)
	sum.Merge(b)
	if fj, n := sum.Cell(PhaseMTAPayload, ProfileCodecMTA, 0, 1, Trans1DV); !floats.Eq(fj, 150) || n != 5 {
		t.Errorf("merged cell = (%v, %d), want (150, 5)", fj, n)
	}
	if !floats.Eq(sum.TotalEnergy(), a.TotalEnergy()+b.TotalEnergy()) {
		t.Errorf("total energy %v != %v + %v", sum.TotalEnergy(), a.TotalEnergy(), b.TotalEnergy())
	}
	if sum.TotalSymbols() != a.TotalSymbols()+b.TotalSymbols() {
		t.Errorf("symbols not conserved")
	}

	var nilProf *Profile
	nilProf.Merge(a) // must not panic
	sum.Merge(nil)
	if !floats.Eq(sum.TotalEnergy(), a.TotalEnergy()+b.TotalEnergy()) {
		t.Errorf("nil merge changed totals")
	}
}
