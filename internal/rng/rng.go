// Package rng provides the deterministic randomness substrate used by every
// stochastic component of the simulator: splittable named streams, and
// samplers for the exponential, Poisson, discrete (alias method) and uniform
// distributions.
//
// All simulation randomness flows through a *Source so that a single seed
// reproduces an entire experiment, and independent sub-streams (arrivals,
// item choice, class choice, bandwidth demand, ...) can be derived by name
// without correlating with each other.
package rng

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/bits"
)

// Source is a deterministic pseudo-random number generator. It implements the
// SplitMix64 -> xoshiro256** pipeline: seeds are expanded with SplitMix64 and
// the stream itself is xoshiro256**, which is fast, passes BigCrush, and needs
// no allocation. Source is NOT safe for concurrent use; derive one per
// goroutine with Split.
type Source struct {
	s [4]uint64
}

// New returns a Source seeded from seed. Two Sources created with the same
// seed produce identical streams.
func New(seed uint64) *Source {
	r := &Source{}
	r.Reseed(seed)
	return r
}

// Reseed re-initialises the Source in place from seed.
func (r *Source) Reseed(seed uint64) {
	sm := seed
	for i := range r.s {
		sm, r.s[i] = splitMix64(sm)
	}
	// xoshiro must not start from the all-zero state.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9E3779B97F4A7C15
	}
}

// splitMix64 advances a SplitMix64 state and returns (newState, output).
func splitMix64(state uint64) (uint64, uint64) {
	state += 0x9E3779B97F4A7C15
	z := state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return state, z ^ (z >> 31)
}

// Uint64 returns the next 64 uniformly distributed bits.
func (r *Source) Uint64() uint64 {
	s := &r.s
	result := rotl(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Split derives an independent child stream identified by name. The child's
// seed mixes the parent's current state with a hash of the name, so distinct
// names give decorrelated streams and the derivation itself is deterministic.
// Split advances the parent.
func (r *Source) Split(name string) *Source {
	h := fnv.New64a()
	_, _ = h.Write([]byte(name))
	return New(r.Uint64() ^ h.Sum64())
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Source) Float64() float64 {
	// 53 high bits -> [0,1) with full double precision.
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic(fmt.Sprintf("rng: Intn called with n=%d", n))
	}
	// Lemire's nearly-divisionless bounded generation.
	v := r.Uint64()
	nn := uint64(n)
	hi, lo := bits.Mul64(v, nn)
	if lo < nn {
		thresh := (-nn) % nn
		for lo < thresh {
			v = r.Uint64()
			hi, lo = bits.Mul64(v, nn)
		}
	}
	return int(hi)
}

// IntRange returns a uniform int in [lo, hi] inclusive. Panics if hi < lo.
func (r *Source) IntRange(lo, hi int) int {
	if hi < lo {
		panic(fmt.Sprintf("rng: IntRange called with lo=%d > hi=%d", lo, hi))
	}
	return lo + r.Intn(hi-lo+1)
}

// Exp returns an exponentially distributed sample with the given rate
// (mean 1/rate). Panics if rate <= 0.
func (r *Source) Exp(rate float64) float64 {
	if rate <= 0 {
		panic(fmt.Sprintf("rng: Exp called with rate=%g", rate))
	}
	u := r.Float64()
	// u is in [0,1); 1-u is in (0,1], so Log never sees 0.
	return -math.Log(1-u) / rate
}

// Poisson returns a Poisson-distributed sample with the given mean.
// Knuth's product method is used for small means; for mean >= 30 the
// transformed-rejection method PTRS (Hörmann 1993) is used, which has bounded
// expected iterations for any mean. Panics if mean < 0.
func (r *Source) Poisson(mean float64) int {
	switch {
	case mean < 0 || math.IsNaN(mean):
		panic(fmt.Sprintf("rng: Poisson called with mean=%g", mean))
	case mean == 0:
		return 0
	case mean < 30:
		return r.poissonKnuth(mean)
	default:
		return r.poissonPTRS(mean)
	}
}

func (r *Source) poissonKnuth(mean float64) int {
	l := math.Exp(-mean)
	k := 0
	p := 1.0
	for {
		p *= r.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// poissonPTRS implements Hörmann's transformed rejection with squeeze.
func (r *Source) poissonPTRS(mean float64) int {
	b := 0.931 + 2.53*math.Sqrt(mean)
	a := -0.059 + 0.02483*b
	invAlpha := 1.1239 + 1.1328/(b-3.4)
	vr := 0.9277 - 3.6224/(b-2)
	logMu := math.Log(mean)
	for {
		u := r.Float64() - 0.5
		v := r.Float64()
		us := 0.5 - math.Abs(u)
		k := math.Floor((2*a/us+b)*u + mean + 0.43)
		if us >= 0.07 && v <= vr {
			return int(k)
		}
		if k < 0 || (us < 0.013 && v > us) {
			continue
		}
		lg, _ := math.Lgamma(k + 1)
		if math.Log(v*invAlpha/(a/(us*us)+b)) <= k*logMu-mean-lg {
			return int(k)
		}
	}
}
