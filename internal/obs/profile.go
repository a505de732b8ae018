package obs

import (
	"fmt"
	"sync/atomic"

	"smores/internal/floats"
)

// Profile is the energy-attribution profiler: a dense table of atomic
// cells keyed by (phase × codec × wire × level × transition class), each
// accumulating femtojoules and symbol counts. The bus accounting paths
// attribute one sample per transmitted symbol (exact-data mode) or one
// aggregate sample per closed-form energy addition (expected mode) into
// a channel-private Tally, and the channel's runner publishes the tally
// into the Profile once per run, one Add per non-empty cell. The sum
// over all cells reconciles with the published runs' summed
// bus.Stats.TotalEnergy to float round-off.
//
// Like every obs handle, a nil *Profile is fully inert: all methods
// nil-check the receiver, adds are lock-free atomics, and Add allocates
// nothing. One Profile may be shared by many channels and goroutines
// (the fleet runner shares one per evaluation run, publishing its runs
// in fleet order) and snapshotted while they publish.

// Phase classifies where on the bus an energy sample was burned.
type Phase uint8

// Attribution phases. They partition bus.Stats.TotalEnergy():
// MTAPayload+DBIWire+SparsePayload+IdleShift sum to WireEnergy,
// PhasePostamble to PostambleEnergy, PhaseLogic to LogicEnergy,
// PhaseReplay to ReplayEnergy (EDC-triggered retransmissions).
const (
	// PhaseMTAPayload is energy on the eight MTA-encoded data wires of a
	// dense burst.
	PhaseMTAPayload Phase = iota
	// PhaseDBIWire is energy on the ninth wire of a group: MSB traffic
	// during MTA bursts, swap metadata during sparse/DBI bursts, the
	// inversion-flag symbol in the prior-art PAM4-DBI baseline.
	PhaseDBIWire
	// PhaseSparsePayload is energy on the data wires of a sparse burst.
	PhaseSparsePayload
	// PhasePostamble is the driven L1 postamble.
	PhasePostamble
	// PhaseIdleShift is the level-shifted idle seam symbol (optimized
	// MTA, Fig. 8b) stepping L3 wires through L1 on the way to idle.
	PhaseIdleShift
	// PhaseLogic is encoder+decoder logic energy (not wire drive).
	PhaseLogic
	// PhaseReplay is wire+logic energy burned by EDC-triggered burst
	// retransmissions (internal/fault + the memctrl replay queue). It
	// carries real per-symbol wire/level/transition identity like the
	// payload phases, but delivers no new data bits, so it is accounted
	// outside WireEnergy in bus.Stats.ReplayEnergy.
	PhaseReplay

	// NumPhases sizes the phase dimension.
	NumPhases = 7
)

// String names the phase.
func (p Phase) String() string {
	switch p {
	case PhaseMTAPayload:
		return "mta-payload"
	case PhaseDBIWire:
		return "dbi-wire"
	case PhaseSparsePayload:
		return "sparse-payload"
	case PhasePostamble:
		return "postamble"
	case PhaseIdleShift:
		return "idle-shift"
	case PhaseLogic:
		return "logic"
	case PhaseReplay:
		return "replay"
	default:
		return fmt.Sprintf("phase(%d)", uint8(p))
	}
}

// TransClass classifies the voltage step that produced a symbol.
type TransClass uint8

// Transition classes: the three legal ΔV magnitudes, the 3ΔV step that
// only the restriction-exempt DBI wire may take, the level-shift seam,
// and the aggregate bucket used by closed-form expected-mode samples.
const (
	Trans0DV TransClass = iota
	Trans1DV
	Trans2DV
	Trans3DV
	// TransSeam marks symbols rewritten by the level-shifting seam rule
	// (a sparse symbol following an L3, or the idle-shift step).
	TransSeam
	// TransMix is the expected-mode aggregate: closed-form energies have
	// no per-symbol transition identity.
	TransMix

	// NumTransClasses sizes the transition dimension.
	NumTransClasses = 6
)

// TransOfDelta maps a ΔV magnitude (0..3) to its class.
func TransOfDelta(d int) TransClass {
	if d < 0 || d > 3 {
		return TransMix
	}
	return TransClass(d)
}

// String names the transition class.
func (t TransClass) String() string {
	switch t {
	case Trans0DV:
		return "0dv"
	case Trans1DV:
		return "1dv"
	case Trans2DV:
		return "2dv"
	case Trans3DV:
		return "3dv"
	case TransSeam:
		return "seam"
	case TransMix:
		return "mix"
	default:
		return fmt.Sprintf("trans(%d)", uint8(t))
	}
}

// Codec indices for the profile's codec dimension. Sparse codes map by
// output length through ProfileCodecIndex; the two prior-art PAM4
// baselines get their own slots so package dbi can feed the profiler.
const (
	ProfileCodecMTA     = 0
	ProfileCodecPAM4    = 7
	ProfileCodecPAM4DBI = 8

	// NumProfileCodecs sizes the codec dimension: mta, 4b3s..4b8s,
	// pam4, pam4/dbi.
	NumProfileCodecs = 9

	// profileMinSparse / profileMaxSparse mirror core.{Min,Max}SparseSymbols
	// without importing core (obs stays dependency-free).
	profileMinSparse = 3
	profileMaxSparse = 8
)

// ProfileCodecIndex maps a burst code length (0 = dense MTA, 3..8 = the
// 4b{3..8}s sparse codes) to its codec-dimension index. Unknown lengths
// return -1, which Add and the Tally adds drop.
func ProfileCodecIndex(codeLength int) int {
	switch {
	case codeLength == 0:
		return ProfileCodecMTA
	case codeLength >= profileMinSparse && codeLength <= profileMaxSparse:
		return codeLength - profileMinSparse + 1
	default:
		return -1
	}
}

// ProfileCodecName names a codec-dimension index.
func ProfileCodecName(idx int) string {
	switch {
	case idx == ProfileCodecMTA:
		return "mta"
	case idx >= 1 && idx <= profileMaxSparse-profileMinSparse+1:
		return fmt.Sprintf("4b%ds", idx+profileMinSparse-1)
	case idx == ProfileCodecPAM4:
		return "pam4"
	case idx == ProfileCodecPAM4DBI:
		return "pam4-dbi"
	default:
		return fmt.Sprintf("codec(%d)", idx)
	}
}

// Wire and level dimensions. A GDDR6X data channel is 18 wires (two
// byte groups of 8 data + 1 DBI); WireAgg and LevelMix hold the
// closed-form expected-mode samples that carry no per-wire/per-level
// identity.
const (
	// ProfileWires is the per-channel physical wire count.
	ProfileWires = 18
	// WireAgg is the pseudo-wire for aggregate samples.
	WireAgg = ProfileWires

	// ProfileLevels covers L0..L3.
	ProfileLevels = 4
	// LevelMix is the pseudo-level for aggregate samples.
	LevelMix = ProfileLevels

	profileWireDim  = ProfileWires + 1
	profileLevelDim = ProfileLevels + 1

	// ProfileCells is the total cell count of the attribution table.
	ProfileCells = NumPhases * NumProfileCodecs * profileWireDim * profileLevelDim * NumTransClasses
)

// Profile is the attribution table. Construct with NewProfile; the zero
// value is not usable (use nil for "off").
type Profile struct {
	energy []FloatCounter
	count  []atomic.Int64
}

// NewProfile builds an empty attribution profile (~0.5 MB of atomic
// cells, shared by every channel that is handed the pointer).
func NewProfile() *Profile {
	return &Profile{
		energy: make([]FloatCounter, ProfileCells),
		count:  make([]atomic.Int64, ProfileCells),
	}
}

// cellIndex flattens a key; returns -1 for out-of-range coordinates.
func cellIndex(ph Phase, codec, wire, level int, tc TransClass) int {
	if ph >= NumPhases || tc >= NumTransClasses ||
		codec < 0 || codec >= NumProfileCodecs ||
		wire < 0 || wire >= profileWireDim ||
		level < 0 || level >= profileLevelDim {
		return -1
	}
	return ((((int(ph)*NumProfileCodecs+codec)*profileWireDim+wire)*
		profileLevelDim + level) * NumTransClasses) + int(tc)
}

// Add records n symbols of fj total energy in one cell. Nil-safe,
// lock-free, zero-allocation; out-of-range keys are dropped.
//
//smores:hotpath
func (p *Profile) Add(ph Phase, codec, wire, level int, tc TransClass, fj float64, n int64) {
	if p == nil {
		return
	}
	i := cellIndex(ph, codec, wire, level, tc)
	if i < 0 {
		return
	}
	if fj > 0 {
		p.energy[i].Add(fj)
	}
	if n > 0 {
		p.count[i].Add(n)
	}
}

// Cell returns one cell's accumulated energy and symbol count.
func (p *Profile) Cell(ph Phase, codec, wire, level int, tc TransClass) (fj float64, n int64) {
	if p == nil {
		return 0, 0
	}
	i := cellIndex(ph, codec, wire, level, tc)
	if i < 0 {
		return 0, 0
	}
	return p.energy[i].Value(), p.count[i].Load()
}

// TotalEnergy sums every cell in fJ. Reconciles with the channel's
// Stats.TotalEnergy() to float round-off (test-enforced).
func (p *Profile) TotalEnergy() float64 {
	if p == nil {
		return 0
	}
	// Kahan-compensated so the reconciliation bound is the feeding
	// paths' rounding, not the export's.
	var sum, comp float64
	for i := range p.energy {
		y := p.energy[i].Value() - comp
		t := sum + y
		comp = (t - sum) - y
		sum = t
	}
	return sum
}

// TotalSymbols sums every cell's symbol count.
func (p *Profile) TotalSymbols() int64 {
	if p == nil {
		return 0
	}
	var n int64
	for i := range p.count {
		n += p.count[i].Load()
	}
	return n
}

// PhaseEnergy sums the cells of one phase.
func (p *Profile) PhaseEnergy(ph Phase) float64 {
	if p == nil || ph >= NumPhases {
		return 0
	}
	var sum, comp float64
	stride := NumProfileCodecs * profileWireDim * profileLevelDim * NumTransClasses
	base := int(ph) * stride
	for i := base; i < base+stride; i++ {
		y := p.energy[i].Value() - comp
		t := sum + y
		comp = (t - sum) - y
		sum = t
	}
	return sum
}

// ProfileCell is one non-empty attribution cell in a snapshot.
type ProfileCell struct {
	Phase Phase
	Codec int
	Wire  int // WireAgg for aggregate samples
	Level int // LevelMix for aggregate samples
	Trans TransClass
	FJ    float64
	Count int64
}

// LevelName renders the cell's level ("L0".."L3" or "mix").
func (c ProfileCell) LevelName() string {
	if c.Level == LevelMix {
		return "mix"
	}
	return fmt.Sprintf("L%d", c.Level)
}

// WireName renders the cell's wire index ("0".."17" or "agg").
func (c ProfileCell) WireName() string {
	if c.Wire == WireAgg {
		return "agg"
	}
	return fmt.Sprintf("%d", c.Wire)
}

// ProfileSnapshot is a point-in-time copy of the non-empty cells plus
// roll-ups, ordered by (phase, codec, wire, level, trans).
type ProfileSnapshot struct {
	Cells       []ProfileCell
	TotalFJ     float64
	Symbols     int64
	PhaseFJ     [NumPhases]float64
	CodecFJ     [NumProfileCodecs]float64
	CodecCounts [NumProfileCodecs]int64
}

// Snapshot captures every non-empty cell. A snapshot racing with
// publishers may miss in-flight samples but never reads torn values.
func (p *Profile) Snapshot() ProfileSnapshot {
	if p == nil {
		return ProfileSnapshot{}
	}
	var s ProfileSnapshot
	for ph := Phase(0); ph < NumPhases; ph++ {
		for codec := 0; codec < NumProfileCodecs; codec++ {
			for wire := 0; wire < profileWireDim; wire++ {
				for level := 0; level < profileLevelDim; level++ {
					for tc := TransClass(0); tc < NumTransClasses; tc++ {
						i := cellIndex(ph, codec, wire, level, tc)
						fj := p.energy[i].Value()
						n := p.count[i].Load()
						if floats.Eq(fj, 0) && n == 0 {
							continue
						}
						s.Cells = append(s.Cells, ProfileCell{
							Phase: ph, Codec: codec, Wire: wire,
							Level: level, Trans: tc, FJ: fj, Count: n,
						})
						s.TotalFJ += fj
						s.Symbols += n
						s.PhaseFJ[ph] += fj
						s.CodecFJ[codec] += fj
						s.CodecCounts[codec] += n
					}
				}
			}
		}
	}
	return s
}
