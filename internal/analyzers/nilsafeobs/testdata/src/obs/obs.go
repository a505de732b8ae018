// Package obs exercises the nilsafeobs analyzer: every exported
// pointer-receiver method on an exported type must open with a
// nil-receiver guard.
package obs

// Registry stands in for an obs handle type such as Profile or Tracer.
type Registry struct {
	n int64
}

// Guarded is compliant: classic first-statement guard.
func (r *Registry) Guarded() int64 {
	if r == nil {
		return 0
	}
	return r.n
}

// GuardedDisjunct is compliant: the nil test is one || disjunct.
func (r *Registry) GuardedDisjunct(skip bool) int64 {
	if r == nil || skip {
		return 0
	}
	return r.n
}

// Enabled is compliant: single-return predicate form.
func (r *Registry) Enabled() bool { return r != nil }

// Inc is compliant by delegation to the guarded Add.
func (r *Registry) Inc() { r.Add(1) }

// Add is compliant.
func (r *Registry) Add(n int64) {
	if r == nil {
		return
	}
	r.n += n
}

// Value dereferences without a guard.
func (r *Registry) Value() int64 { // want `exported method \(\*Registry\)\.Value must begin with a nil-receiver guard`
	return r.n
}

// BadDelegate delegates to an unguarded method, so the chain is unsafe.
func (r *Registry) BadDelegate() int64 { // want `exported method \(\*Registry\)\.BadDelegate must begin with a nil-receiver guard`
	return r.Value()
}

// Reset opts out: documented as only reachable through a non-nil owner.
//
//smores:nonnil only called by the owning server, which checks construction
func (r *Registry) Reset() { r.n = 0 }

// Name never touches the receiver, so no guard is needed.
func (r *Registry) Name() string { return "registry" }

// internalState is unexported: out of scope for the obs-package rule.
type internalState struct{ v int }

func (s *internalState) Bump() { s.v++ }

// value receivers cannot be nil.
type Snapshot struct{ N int64 }

func (s Snapshot) Total() int64 { return s.N }
