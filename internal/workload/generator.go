package workload

import (
	"smores/internal/gpu"
	"smores/internal/rng"
)

// historyLen is how many recently-visited burst origins a generator
// remembers for reuse bursts.
const historyLen = 256

// Generator produces one application's access stream. It implements
// gpu.Generator.
type Generator struct {
	p      Profile
	r      rng.RNG
	cursor uint64
	// burstLeft counts remaining accesses in the current burst.
	burstLeft int
	// pendingThink is attached to the first access of the next burst.
	pendingThink int64
	history      []uint64
	histIdx      int
}

// NewGenerator builds a generator with its own deterministic stream.
func NewGenerator(p Profile, seed uint64) (*Generator, error) {
	g := new(Generator)
	if err := g.Reset(p, seed); err != nil {
		return nil, err
	}
	return g, nil
}

// Reset rebuilds g for p and seed exactly as NewGenerator(p, seed)
// would, so a runner that keeps one generator per worker restarts it
// for every run. It keeps only the reuse history's storage. On error g
// is unchanged.
func (g *Generator) Reset(p Profile, seed uint64) error {
	if err := p.Validate(); err != nil {
		return err
	}
	history := g.history[:0]
	if history == nil {
		history = make([]uint64, 0, historyLen)
	}
	*g = Generator{p: p, history: history}
	g.r.Seed(seed)
	g.cursor = g.r.Uint64() % p.WorkingSetSectors
	return nil
}

// Profile returns the generator's profile.
func (g *Generator) Profile() Profile { return g.p }

// Next implements gpu.Generator. The stream is endless; the driver bounds
// the run.
func (g *Generator) Next() (gpu.Access, bool) {
	if g.burstLeft <= 0 {
		g.startBurst()
	}
	g.burstLeft--
	a := gpu.Access{
		Sector: g.cursor % g.p.WorkingSetSectors,
		Write:  g.r.Bool(g.p.WriteFrac),
		Think:  g.pendingThink,
	}
	g.pendingThink = 0
	g.cursor++
	return a, true
}

func (g *Generator) startBurst() {
	g.burstLeft = g.r.Geometric(g.p.BurstLen)
	if g.p.ThinkMean > 0 {
		g.pendingThink = int64(g.r.Geometric(g.p.ThinkMean+1)) - 1
	}
	switch {
	case len(g.history) > 0 && g.r.Bool(g.p.Reuse):
		// Replay a recent region: the LLC will absorb most of it.
		g.cursor = g.history[g.r.Intn(len(g.history))]
	case g.r.Bool(g.p.Sequential):
		// Continue streaming from the cursor.
	default:
		// Jump somewhere new in the working set.
		g.cursor = g.r.Uint64() % g.p.WorkingSetSectors
	}
	g.remember(g.cursor)
}

func (g *Generator) remember(sector uint64) {
	if len(g.history) < historyLen {
		g.history = append(g.history, sector)
		return
	}
	g.history[g.histIdx] = sector
	g.histIdx = (g.histIdx + 1) % historyLen
}
