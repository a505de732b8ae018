// Package rng provides a small, fast, deterministic pseudo-random number
// generator (xoshiro256★★ seeded via SplitMix64) so simulations are
// reproducible across runs and platforms without importing math/rand's
// global state.
package rng

import "math"

// RNG is a xoshiro256★★ generator. The zero value is invalid; use New,
// or Seed a zero value.
type RNG struct {
	s [4]uint64
}

// New seeds a generator. Any seed (including 0) is valid: states are
// expanded through SplitMix64, which never yields the all-zero state.
func New(seed uint64) *RNG {
	r := &RNG{}
	r.Seed(seed)
	return r
}

// Seed puts r in the state New(seed) starts from, so a simulation
// component that keeps its generator across runs reseeds it in place.
func (r *RNG) Seed(seed uint64) {
	sm := seed
	for i := range r.s {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
}

// Fork derives an independent generator from this one, for giving each
// simulation component its own stream.
func (r *RNG) Fork() *RNG { return New(r.Uint64()) }

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// step is one xoshiro256★★ step on a state held in four values: it
// returns the output and the next state. Uint64 steps the generator's
// own state; FirstBelow steps a local copy for a whole run of draws.
func step(s0, s1, s2, s3 uint64) (uint64, uint64, uint64, uint64, uint64) {
	out := rotl(s1*5, 7) * 9
	t := s1 << 17
	s2 ^= s0
	s3 ^= s1
	s1 ^= s2
	s0 ^= s3
	s2 ^= t
	return out, s0, s1, s2, rotl(s3, 45)
}

// Uint64 returns the next 64 uniformly random bits.
func (r *RNG) Uint64() uint64 {
	var out uint64
	out, r.s[0], r.s[1], r.s[2], r.s[3] = step(r.s[0], r.s[1], r.s[2], r.s[3])
	return out
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n)) // negligible modulo bias for simulation use
}

// Int63 returns a non-negative 63-bit integer.
func (r *RNG) Int63() int64 { return int64(r.Uint64() >> 1) }

// Float64 returns a uniform float in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool { return r.Float64() < p }

// BoolThreshold returns the threshold t for which Below(t) returns what
// Bool(p) would from the same generator state: 0 for p ≤ 0 or NaN, 2^53
// for p ≥ 1, and ⌈p·2^53⌉ otherwise. Bool compares a 53-bit draw k,
// scaled by 2^-53, with p; both scalings by a power of two are exact,
// so k·2^-53 < p exactly when k < ⌈p·2^53⌉. Callers that draw against a
// fixed p compute t once and compare integers per draw.
func BoolThreshold(p float64) uint64 {
	switch {
	case !(p > 0):
		return 0
	case p >= 1:
		return 1 << 53
	}
	return uint64(math.Ceil(p * (1 << 53)))
}

// Below draws the next 53-bit value and reports whether it is below t.
// It consumes one Uint64, as Bool does.
func (r *RNG) Below(t uint64) bool { return r.Uint64()>>11 < t }

// FirstBelow makes the draws a loop of up to n Below(t) calls would and
// stops after the first that is below t, returning its index; it
// returns n when none is. The state stays in locals for the whole run,
// so a sparse event process (one draw per symbol, rarely a hit) pays
// one xoshiro step per draw and no call.
//
//smores:hotpath
func (r *RNG) FirstBelow(t uint64, n int) int {
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	i := 0
	for ; i < n; i++ {
		var out uint64
		out, s0, s1, s2, s3 = step(s0, s1, s2, s3)
		if out>>11 < t {
			break
		}
	}
	r.s = [4]uint64{s0, s1, s2, s3}
	return i
}

// Geometric returns a sample from a geometric distribution with the given
// mean ≥ 1 (number of trials until first success, support {1, 2, ...}).
func (r *RNG) Geometric(mean float64) int {
	if mean <= 1 {
		return 1
	}
	p := 1 / mean
	// Inverse CDF sampling.
	u := r.Float64()
	k := 1 + int(math.Floor(math.Log(1-u)/math.Log(1-p)))
	if k < 1 {
		k = 1
	}
	return k
}

// Exp returns an exponential sample with the given mean.
func (r *RNG) Exp(mean float64) float64 {
	u := r.Float64()
	return -mean * math.Log(1-u)
}

// Fill writes random bytes into b.
func (r *RNG) Fill(b []byte) {
	i := 0
	for ; i+8 <= len(b); i += 8 {
		v := r.Uint64()
		b[i] = byte(v)
		b[i+1] = byte(v >> 8)
		b[i+2] = byte(v >> 16)
		b[i+3] = byte(v >> 24)
		b[i+4] = byte(v >> 32)
		b[i+5] = byte(v >> 40)
		b[i+6] = byte(v >> 48)
		b[i+7] = byte(v >> 56)
	}
	if i < len(b) {
		v := r.Uint64()
		for ; i < len(b); i++ {
			b[i] = byte(v)
			v >>= 8
		}
	}
}
