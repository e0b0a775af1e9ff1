// Package zipf implements the Zipf-like access-probability model the paper
// uses both for item popularity (assumption 4: skew coefficient θ from 0.20 to
// 1.40) and for the distribution of clients among service classes
// (assumption 6: fewest highest-priority clients, most lowest-priority).
//
// The paper's definition (section 4.1):
//
//	P_i = (1/i)^θ / Σ_{j=1..n} (1/j)^θ ,  i = 1..n
//
// θ = 0 is the uniform distribution; larger θ concentrates probability on the
// low ranks.
package zipf

import (
	"fmt"
	"math"

	"hybridqos/internal/rng"
)

// Distribution is an immutable Zipf-like probability vector over ranks
// 1..N (stored at indices 0..N-1).
type Distribution struct {
	theta float64
	probs []float64
	cum   []float64 // cumulative probabilities, for CDF queries
	alias *rng.Alias
}

// New builds a Zipf distribution over n ranks with skew coefficient theta.
// It returns an error if n <= 0 or theta is negative, NaN or Inf. theta = 0
// yields the uniform distribution.
func New(n int, theta float64) (*Distribution, error) {
	if n <= 0 {
		return nil, fmt.Errorf("zipf: n must be positive, got %d", n)
	}
	if theta < 0 || math.IsNaN(theta) || math.IsInf(theta, 0) {
		return nil, fmt.Errorf("zipf: invalid theta %g", theta)
	}
	d := &Distribution{
		theta: theta,
		probs: make([]float64, n),
		cum:   make([]float64, n),
	}
	sum := 0.0
	for i := 0; i < n; i++ {
		d.probs[i] = math.Pow(1/float64(i+1), theta)
		sum += d.probs[i]
	}
	run := 0.0
	for i := range d.probs {
		d.probs[i] /= sum
		run += d.probs[i]
		d.cum[i] = run
	}
	d.cum[n-1] = 1 // guard against accumulated rounding
	d.alias = rng.MustAlias(d.probs)
	return d, nil
}

// Must is New that panics on error.
//
//lint:allow deadcode shared test fixture: tests in several packages build distributions with it
func Must(n int, theta float64) *Distribution {
	d, err := New(n, theta)
	if err != nil {
		panic(fmt.Errorf("zipf: Must: %w", err))
	}
	return d
}

// N returns the number of ranks.
func (d *Distribution) N() int { return len(d.probs) }

// Theta returns the skew coefficient.
func (d *Distribution) Theta() float64 { return d.theta }

// Prob returns P_rank for rank in [1, N]. It panics on an out-of-range rank so
// that an off-by-one in a caller surfaces immediately rather than skewing an
// experiment.
func (d *Distribution) Prob(rank int) float64 {
	if rank < 1 || rank > len(d.probs) {
		panic(fmt.Sprintf("zipf: rank %d out of [1,%d]", rank, len(d.probs)))
	}
	return d.probs[rank-1]
}

// Probs returns a copy of the probability vector indexed by rank-1.
func (d *Distribution) Probs() []float64 {
	out := make([]float64, len(d.probs))
	copy(out, d.probs)
	return out
}

// CumProb returns Σ_{i=1..rank} P_i; CumProb(0) = 0.
func (d *Distribution) CumProb(rank int) float64 {
	if rank < 0 || rank > len(d.probs) {
		panic(fmt.Sprintf("zipf: rank %d out of [0,%d]", rank, len(d.probs)))
	}
	if rank == 0 {
		return 0
	}
	return d.cum[rank-1]
}

// TailProb returns Σ_{i=rank..N} P_i, the probability mass of ranks >= rank.
// TailProb(N+1) = 0. This is the pull-set mass Σ_{i=K+1..D} P_i when called
// with rank = K+1.
func (d *Distribution) TailProb(rank int) float64 {
	if rank < 1 || rank > len(d.probs)+1 {
		panic(fmt.Sprintf("zipf: rank %d out of [1,%d]", rank, len(d.probs)+1))
	}
	return 1 - d.CumProb(rank-1)
}

// Sample draws a rank in [1, N] with probability P_rank in O(1).
func (d *Distribution) Sample(r *rng.Source) int {
	return d.alias.Sample(r) + 1
}
