package obs

import (
	"fmt"
	"sync"

	"smores/internal/floats"
)

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
// output length through ProfileCodecIndex.
const (
	ProfileCodecMTA = 0

	// NumProfileCodecs sizes the codec dimension: mta, 4b3s..4b8s.
	NumProfileCodecs = 7

	// profileMinSparse / profileMaxSparse mirror core.{Min,Max}SparseSymbols
	// without importing core (obs stays dependency-free).
	profileMinSparse = 3
	profileMaxSparse = 8
)

// ProfileCodecIndex maps a burst code length (0 = dense MTA, 3..8 = the
// 4b{3..8}s sparse codes) to its codec-dimension index. Unknown lengths
// return -1, which the adds drop.
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
	case idx >= 1 && idx < NumProfileCodecs:
		return fmt.Sprintf("4b%ds", idx+profileMinSparse-1)
	default:
		return fmt.Sprintf("codec(%d)", idx)
	}
}

// Wire and level dimensions. A GDDR6X data channel is 18 wires (two
// byte groups of 8 data + 1 DBI); WireAgg and LevelMix key the
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
)

// Profile is the energy-attribution profiler: a table of cells keyed by
// (phase × codec × wire × level × transition class), each accumulating
// femtojoules and a symbol count. The cells come in two parts:
//
//   - 49 aggregate cells, one per phase × codec at wire WireAgg, level
//     LevelMix and class TransMix, for closed-form expected-mode and
//     logic samples;
//   - 17,640 per-symbol cells (phase × codec × 18 wires × 4 levels × the
//     ΔV and seam classes) for exact-data symbols, allocated only when
//     needed.
//
// A profile plays two roles. A tally (NewTally) is a private,
// single-writer profile: a bus channel records every attribution sample
// into its own tally with plain adds (Row, AddAggregate), which sum each
// cell's samples in arrival order. A shared profile (NewProfile) is what
// runners hand to their channels and read results from: the runner
// publishes each accepted run's tally into it once (Publish), in an
// order of its choosing, under the shared profile's lock. The sum over
// all published cells reconciles with the published runs' summed
// bus.Stats.TotalEnergy to float round-off.
//
// Like every obs handle, a nil *Profile is fully inert: every method
// nil-checks the receiver. Adds take no lock and allocate nothing, so
// they belong to the profile's one writer; Publish and the read methods
// lock the profile they publish into or read, so many goroutines may
// publish into one shared profile and read it meanwhile.
type Profile struct {
	mu  sync.Mutex // guards a shared profile's cells against concurrent publishes and reads
	agg [aggCells]cell
	sym []cell // per-symbol cells; nil until needed
}

// cell is one attribution cell.
type cell struct {
	fj float64
	n  int64
}

const (
	// aggCells counts the aggregate cells: one per phase × codec.
	aggCells = NumPhases * NumProfileCodecs
	// symClasses covers the per-symbol classes 0ΔV..3ΔV and seam;
	// TransMix belongs to aggregate samples only.
	symClasses = int(TransSeam) + 1
	// symCells counts the per-symbol cells.
	symCells = NumPhases * NumProfileCodecs * ProfileWires * SymbolCells
)

// NewProfile returns an empty shared profile. It holds the aggregate
// cells inline and allocates the per-symbol cells when the first tally
// that has them is published into it.
func NewProfile() *Profile { return new(Profile) }

// aggTallies and symTallies pool published tallies by kind, so an
// expected-mode channel never holds, or scans, a per-symbol part.
var aggTallies, symTallies sync.Pool

// NewTally returns an empty tally from the pool, with per-symbol cells
// when perSymbol is set (exact-data channels) and without them
// otherwise. Tallies go back to the pool when published, so a fleet
// builds a handful, not one per run.
func NewTally(perSymbol bool) *Profile {
	pool := &aggTallies
	if perSymbol {
		pool = &symTallies
	}
	if t, ok := pool.Get().(*Profile); ok {
		return t
	}
	t := new(Profile)
	if perSymbol {
		t.sym = make([]cell, symCells)
	}
	return t
}

// SymbolCells is the number of per-symbol cells each wire has in a
// ProfileRow: one per level and per-symbol class, addressed by
// SymbolCell.
const SymbolCells = ProfileLevels * symClasses

// SymbolCell returns the offset within a wire's SymbolCells cells of
// the symbols at level with transition class tc, or -1 when the pair
// has no per-symbol cell (TransMix, or a level outside L0..L3), which
// ProfileRow.Add drops. Callers resolve it once per (level, class)
// pair, e.g. into a transition table, rather than once per symbol.
func SymbolCell(level int, tc TransClass) int {
	if uint(level) >= ProfileLevels || int(tc) >= symClasses {
		return -1
	}
	return level*symClasses + int(tc)
}

// ProfileRow is a window onto a profile's per-symbol cells: the cells of
// consecutive wires under one phase and codec. A channel resolves the
// row of a group's wires once per burst and then adds each symbol with
// one multiply-add and one bounds check; the key checks are done by
// Row. The zero ProfileRow drops every sample.
type ProfileRow struct {
	cells []cell
}

// Row returns the per-symbol cells of wires [wire, wire+wires) under
// (ph, codec). It returns the zero row, which drops every sample, when
// p is nil or has no per-symbol cells, or when the key lies outside
// them.
//
//smores:hotpath
func (p *Profile) Row(ph Phase, codec, wire, wires int) ProfileRow {
	if p == nil || ph >= NumPhases || uint(codec) >= NumProfileCodecs ||
		uint(wire) > ProfileWires || uint(wires) > uint(ProfileWires-wire) {
		return ProfileRow{}
	}
	i := ((int(ph)*NumProfileCodecs+codec)*ProfileWires + wire) * SymbolCells
	if i+wires*SymbolCells > len(p.sym) {
		return ProfileRow{}
	}
	return ProfileRow{cells: p.sym[i : i+wires*SymbolCells]}
}

// Add records one transmitted symbol of fj ≥ 0 femtojoules on the
// row's w-th wire in the cell SymbolCell gave. Samples whose wire lies
// outside the row, or whose cell is not a SymbolCell offset, are
// dropped.
//
//smores:hotpath
func (r ProfileRow) Add(w, cell int, fj float64) {
	if uint(cell) >= uint(SymbolCells) {
		return
	}
	if i := w*SymbolCells + cell; uint(i) < uint(len(r.cells)) {
		c := &r.cells[i]
		c.fj += fj
		c.n++
	}
}

// AddAggregate records a closed-form sample with no per-wire, level or
// transition identity, at (WireAgg, LevelMix, TransMix): energy counts
// only when positive, symbols only when positive. Out-of-range keys are
// dropped.
//
//smores:hotpath
func (p *Profile) AddAggregate(ph Phase, codec int, fj float64, symbols int64) {
	if p == nil || ph >= NumPhases || uint(codec) >= NumProfileCodecs {
		return
	}
	p.agg[int(ph)*NumProfileCodecs+codec].add(fj, symbols)
}

// add accumulates fj and n, each only when positive.
func (c *cell) add(fj float64, n int64) {
	if fj > 0 {
		c.fj += fj
	}
	if n > 0 {
		c.n += n
	}
}

func (c *cell) empty() bool { return floats.Eq(c.fj, 0) && c.n == 0 }

// Publish adds every cell of tally t to dst under dst's lock, in key
// order: each dst cell gains t's energy and symbol count, each only when
// positive. It then zeroes t and returns it to the pool, so the caller
// must not use t afterwards. A nil dst discards the samples; a nil t
// publishes nothing.
func (t *Profile) Publish(dst *Profile) {
	if t == nil {
		return
	}
	if dst != nil {
		dst.mu.Lock()
		for i := range t.agg {
			dst.agg[i].add(t.agg[i].fj, t.agg[i].n)
		}
		if t.sym != nil && dst.sym == nil {
			dst.sym = make([]cell, symCells)
		}
		for i := range t.sym {
			dst.sym[i].add(t.sym[i].fj, t.sym[i].n)
		}
		dst.mu.Unlock()
	}
	t.agg = [aggCells]cell{}
	if t.sym == nil {
		aggTallies.Put(t)
		return
	}
	clear(t.sym)
	symTallies.Put(t)
}

// kahan is a compensated float sum.
type kahan struct{ sum, comp float64 }

func (k *kahan) add(x float64) {
	y := x - k.comp
	t := k.sum + y
	k.comp = (t - k.sum) - y
	k.sum = t
}

// addPhase adds phase ph's energies to k in key order: per codec, each
// wire's per-symbol cells level by level, then the aggregate cell.
//
// The totals are defined as compensated sums over a dense key grid:
// per phase, nine codec slots (the last two for the prior-art PAM4
// baselines, which no channel feeds) × (18 wires + agg) × (4 levels +
// mix) × 6 classes, empty keys included. An empty key can move a
// compensated sum's last bit, and a run of them moves it as one does,
// so addPhase adds one zero wherever that grid has empty keys between
// cells this table stores: after each level's classes, before an
// aggregate cell when there are no per-symbol cells, and after the last
// codec.
func (p *Profile) addPhase(k *kahan, ph Phase) {
	for codec := range NumProfileCodecs {
		if p.sym == nil {
			k.add(0)
		} else {
			i := (int(ph)*NumProfileCodecs + codec) * ProfileWires * SymbolCells
			for _, c := range p.sym[i : i+ProfileWires*SymbolCells] {
				k.add(c.fj)
				if i++; i%symClasses == 0 {
					k.add(0)
				}
			}
		}
		k.add(p.agg[int(ph)*NumProfileCodecs+codec].fj)
	}
	k.add(0)
}

// TotalEnergy sums every cell in fJ (see addPhase for the summation
// order). Reconciles with the channel's Stats.TotalEnergy() to float
// round-off (test-enforced).
func (p *Profile) TotalEnergy() float64 {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	// Kahan-compensated so the reconciliation bound is the feeding
	// paths' rounding, not the export's.
	var k kahan
	for ph := Phase(0); ph < NumPhases; ph++ {
		p.addPhase(&k, ph)
	}
	return k.sum
}

// TotalSymbols sums every cell's symbol count.
func (p *Profile) TotalSymbols() int64 {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	var n int64
	for _, c := range p.agg {
		n += c.n
	}
	for _, c := range p.sym {
		n += c.n
	}
	return n
}

// PhaseEnergy sums the cells of one phase, compensated as TotalEnergy.
func (p *Profile) PhaseEnergy(ph Phase) float64 {
	if p == nil || ph >= NumPhases {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	var k kahan
	p.addPhase(&k, ph)
	return k.sum
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

// Snapshot copies every non-empty cell, in key order, under the
// profile's lock: a publish lands in it entirely or not at all.
func (p *Profile) Snapshot() ProfileSnapshot {
	if p == nil {
		return ProfileSnapshot{}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	var s ProfileSnapshot
	take := func(c ProfileCell) {
		s.Cells = append(s.Cells, c)
		s.TotalFJ += c.FJ
		s.Symbols += c.Count
		s.PhaseFJ[c.Phase] += c.FJ
		s.CodecFJ[c.Codec] += c.FJ
		s.CodecCounts[c.Codec] += c.Count
	}
	i := 0
	for ph := Phase(0); ph < NumPhases; ph++ {
		for codec := range NumProfileCodecs {
			for wire := 0; p.sym != nil && wire < ProfileWires; wire++ {
				for level := range ProfileLevels {
					for tc := TransClass(0); int(tc) < symClasses; tc++ {
						if c := p.sym[i]; !c.empty() {
							take(ProfileCell{Phase: ph, Codec: codec, Wire: wire,
								Level: level, Trans: tc, FJ: c.fj, Count: c.n})
						}
						i++
					}
				}
			}
			if c := p.agg[int(ph)*NumProfileCodecs+codec]; !c.empty() {
				take(ProfileCell{Phase: ph, Codec: codec, Wire: WireAgg,
					Level: LevelMix, Trans: TransMix, FJ: c.fj, Count: c.n})
			}
		}
	}
	return s
}
