// Package prng provides small, fast, deterministic pseudo-random number
// generators used by the simulator's workload generators and entropy
// models.
//
// The simulator must be bit-reproducible across runs and across Go
// releases, so it does not use math/rand. Instead it ships a SplitMix64
// seeder and a xoshiro256** generator, both with published reference
// outputs that the test suite pins down.
//
// Note: these generators drive *simulation* (synthetic traces, process
// variation models). They are not the true random numbers the simulated
// DRAM TRNG produces; those come out of internal/trng's entropy-cell
// model, which consumes this package only as its physical-noise source.
package prng

import "math"

// SplitMix64 is the 64-bit SplitMix generator of Steele, Lea and Flood.
// It is primarily used to derive well-distributed seeds for Xoshiro from
// a single human-chosen seed. The zero value is a valid generator seeded
// with 0.
type SplitMix64 struct {
	state uint64
}

// NewSplitMix64 returns a SplitMix64 seeded with seed.
func NewSplitMix64(seed uint64) *SplitMix64 {
	return &SplitMix64{state: seed}
}

// Clone returns an independent generator at the same stream position:
// both copies emit the identical future sequence.
func (s *SplitMix64) Clone() *SplitMix64 {
	cp := *s
	return &cp
}

// Next returns the next value in the sequence.
func (s *SplitMix64) Next() uint64 {
	s.state += 0x9E3779B97F4A7C15
	z := s.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Xoshiro256 implements xoshiro256** 1.0 by Blackman and Vigna.
// It has a 256-bit state, passes BigCrush, and is the workhorse
// generator of the simulator.
type Xoshiro256 struct {
	s [4]uint64
}

// NewXoshiro256 returns a generator whose state is derived from seed via
// SplitMix64, as recommended by the xoshiro authors. Any seed, including
// zero, yields a usable generator.
func NewXoshiro256(seed uint64) *Xoshiro256 {
	sm := NewSplitMix64(seed)
	var x Xoshiro256
	for i := range x.s {
		x.s[i] = sm.Next()
	}
	// An all-zero state would be a fixed point; SplitMix64 cannot emit
	// four consecutive zeros, so no further guard is needed.
	return &x
}

// Clone returns an independent generator at the same stream position:
// both copies emit the identical future sequence.
func (x *Xoshiro256) Clone() *Xoshiro256 {
	cp := *x
	return &cp
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed bits.
func (x *Xoshiro256) Uint64() uint64 {
	result := rotl(x.s[1]*5, 7) * 9
	t := x.s[1] << 17
	x.s[2] ^= x.s[0]
	x.s[3] ^= x.s[1]
	x.s[1] ^= x.s[2]
	x.s[0] ^= x.s[3]
	x.s[2] ^= t
	x.s[3] = rotl(x.s[3], 45)
	return result
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (x *Xoshiro256) Intn(n int) int {
	if n <= 0 {
		panic("prng: Intn called with non-positive n")
	}
	// Lemire's nearly-divisionless method would be faster, but the
	// simple modulo of a 64-bit draw has negligible bias for the n used
	// by the simulator (all far below 2^32) and is easier to verify.
	return int(x.Uint64() % uint64(n))
}

// Float64 returns a uniform float64 in [0, 1) with 53 bits of precision.
func (x *Xoshiro256) Float64() float64 {
	return float64(x.Uint64()>>11) / (1 << 53)
}

// bernoulliThreshold converts a probability into the 53-bit integer
// threshold t such that Float64() < p exactly when Uint64()>>11 < t.
// The equivalence is exact: Float64() is (Uint64()>>11) * 2^-53 with
// both the shift and the power-of-two scaling free of rounding, so for
// the integer draw a, float64(a) < p*2^53 iff a < ceil(p*2^53) (the
// integer comparison sidesteps a float division per draw — the hot
// loops below draw once per simulated instruction gap unit).
func bernoulliThreshold(p float64) uint64 {
	return uint64(math.Ceil(p * (1 << 53)))
}

// Bernoulli returns true with probability p (clamped to [0, 1]).
func (x *Xoshiro256) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return x.Uint64()>>11 < bernoulliThreshold(p)
}

// geometricValve is the failure count at which Geometric stops drawing
// one value per trial and finishes by inversion.
const geometricValve = 1 << 20

// maxGeometric caps a Geometric draw: far past any simulated horizon,
// yet small enough that a caller can add it to a tick count without
// overflowing int64 (p may underflow toward 0).
const maxGeometric = 1 << 53

// Geometric returns a draw from a geometric distribution with success
// probability p: the number of failures before the first success
// (support {0, 1, 2, ...}, mean (1-p)/p), capped at maxGeometric plus
// geometricValve. It panics if p <= 0 or p > 1.
func (x *Xoshiro256) Geometric(p float64) int {
	if p <= 0 || p > 1 {
		panic("prng: Geometric needs 0 < p <= 1")
	}
	if p == 1 {
		return 0
	}
	// One generator draw per failed trial, exactly as the textbook
	// Bernoulli loop consumes, so the stream stays bit-identical to the
	// naive formulation — but with the comparison hoisted to a single
	// precomputed integer threshold.
	thr := bernoulliThreshold(p)
	n := 0
	for x.Uint64()>>11 >= thr {
		n++
		if n == geometricValve {
			// Failures are memoryless: the ones still to come are again
			// Geometric(p), drawn in one step by inversion,
			// floor(log(1-U)/log(1-p)). A draw that stops short of the
			// valve is unchanged.
			rest := math.Floor(log(1-x.Float64()) / math.Log1p(-p))
			return n + int(min(rest, maxGeometric))
		}
	}
	return n
}

// Normal returns a draw from a normal distribution with the given mean
// and standard deviation, using the polar Box-Muller transform.
func (x *Xoshiro256) Normal(mean, stddev float64) float64 {
	for {
		u := 2*x.Float64() - 1
		v := 2*x.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			// math.Sqrt and math.Log are deterministic across
			// platforms for the IEEE-754 values reachable here.
			return mean + stddev*u*sqrtNeg2LogOver(s)
		}
	}
}

// sqrtNeg2LogOver computes sqrt(-2 ln(s) / s) without importing math in
// the hot path signature; split out for testability.
func sqrtNeg2LogOver(s float64) float64 {
	return sqrt(-2 * log(s) / s)
}
