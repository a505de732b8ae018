package workload

import (
	"fmt"
	"sync"

	"smores/internal/gpu"
)

// External is a trace-backed workload registered beside the synthetic
// fleet: a profile describing its aggregate traffic shape plus an Open
// hook that starts a fresh deterministic replay of the recorded stream.
type External struct {
	Profile Profile
	// Open starts a new replay generator; each call must reproduce the
	// identical access stream (replay is deterministic by construction).
	Open func() (gpu.Generator, error)
}

var (
	externalMu    sync.Mutex
	externalOrder []string
	externals     = make(map[string]External)
)

// RegisterExternal adds a trace-backed workload. The name must not
// collide with a synthetic fleet app or an earlier registration.
func RegisterExternal(e External) error {
	if err := e.Profile.Validate(); err != nil {
		return err
	}
	if e.Open == nil {
		return fmt.Errorf("workload %s: external registration needs an Open hook", e.Profile.Name)
	}
	if _, ok := ByName(e.Profile.Name); ok {
		return fmt.Errorf("workload %s: name collides with a fleet app", e.Profile.Name)
	}
	externalMu.Lock()
	defer externalMu.Unlock()
	if _, ok := externals[e.Profile.Name]; ok {
		return fmt.Errorf("workload %s: already registered", e.Profile.Name)
	}
	externalOrder = append(externalOrder, e.Profile.Name)
	externals[e.Profile.Name] = e
	return nil
}

// UnregisterExternal removes a registration (intended for tests).
func UnregisterExternal(name string) {
	externalMu.Lock()
	defer externalMu.Unlock()
	if _, ok := externals[name]; !ok {
		return
	}
	delete(externals, name)
	for i, n := range externalOrder {
		if n == name {
			externalOrder = append(externalOrder[:i], externalOrder[i+1:]...)
			break
		}
	}
}

// ExternalProfiles returns registered externals in registration order.
func ExternalProfiles() []Profile {
	externalMu.Lock()
	defer externalMu.Unlock()
	out := make([]Profile, 0, len(externalOrder))
	for _, name := range externalOrder {
		out = append(out, externals[name].Profile)
	}
	return out
}

// lookupExternal returns the registration for name, if any.
func lookupExternal(name string) (External, bool) {
	externalMu.Lock()
	defer externalMu.Unlock()
	e, ok := externals[name]
	return e, ok
}

// OpenGenerator starts the access stream for p: a replay of the
// recorded trace when p names a registered external, otherwise the
// synthetic generator seeded with seed. Runner layers call this so
// trace-backed fleet members are interchangeable with synthetic apps.
// A replay may hold files (a trace-store replay is an io.Closer, and
// its caller closes it once the stream is no longer read).
func OpenGenerator(p Profile, seed uint64) (gpu.Generator, error) {
	return ReopenGenerator(nil, p, seed)
}

// ReopenGenerator is OpenGenerator for a caller that keeps a synthetic
// generator between runs: a synthetic stream Resets g and returns it,
// where OpenGenerator builds a new generator (as a nil g does here). A
// registered external opens its replay and leaves g alone.
func ReopenGenerator(g *Generator, p Profile, seed uint64) (gpu.Generator, error) {
	if e, ok := lookupExternal(p.Name); ok {
		return e.Open()
	}
	if g == nil {
		g = new(Generator)
	}
	if err := g.Reset(p, seed); err != nil {
		return nil, err
	}
	return g, nil
}
