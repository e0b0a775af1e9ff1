// Package markov provides a continuous-time Markov chain (CTMC) stationary
// solver. The paper's performance model (section 4) is a family of CTMCs —
// the push/pull birth–death chain of §4.1 and the two-priority-class chain of
// §4.2.1 — whose printed closed forms are under-determined (they contain the
// unresolved terms N and P_{0,2}(z)). We instead solve truncations of the
// same chains exactly, which is what Figure 7's "analytical" curve needs.
//
// Two solvers are provided: a direct dense Gaussian elimination (exact, for
// chains up to a few thousand states) and uniformization + power iteration
// (for larger chains); tests cross-validate them against each other and
// against textbook queues with known closed forms.
package markov

import (
	"fmt"
	"math"
)

// transition is one outgoing rate edge.
type transition struct {
	to   int
	rate float64
}

// Chain is a finite-state CTMC under construction. States are dense integers
// 0..n-1.
type Chain struct {
	n     int
	edges [][]transition
	out   []float64 // total outgoing rate per state
}

// NewChain creates a chain with n states and no transitions. n must be
// positive.
func NewChain(n int) *Chain {
	if n <= 0 {
		panic(fmt.Sprintf("markov: chain size %d", n))
	}
	return &Chain{
		n:     n,
		edges: make([][]transition, n),
		out:   make([]float64, n),
	}
}

// N returns the number of states.
func (c *Chain) N() int { return c.n }

// AddRate adds a transition from -> to with the given rate. Self-loops are
// ignored (they do not affect a CTMC's stationary distribution). Negative,
// NaN or infinite rates panic; zero rates are dropped.
func (c *Chain) AddRate(from, to int, rate float64) {
	if from < 0 || from >= c.n || to < 0 || to >= c.n {
		panic(fmt.Sprintf("markov: transition %d->%d out of [0,%d)", from, to, c.n))
	}
	if rate < 0 || math.IsNaN(rate) || math.IsInf(rate, 0) {
		panic(fmt.Sprintf("markov: invalid rate %g for %d->%d", rate, from, to))
	}
	if rate == 0 || from == to {
		return
	}
	c.edges[from] = append(c.edges[from], transition{to: to, rate: rate})
	c.out[from] += rate
}

// maxOutRate returns the largest total outgoing rate, the uniformization
// constant's lower bound.
func (c *Chain) maxOutRate() float64 {
	m := 0.0
	for _, r := range c.out {
		if r > m {
			m = r
		}
	}
	return m
}

// stationaryPower computes the stationary distribution by uniformization and
// power iteration: P = I + Q/Λ with Λ slightly above the max exit rate, then
// π ← πP until the L1 change drops below tol. Returns an error if the chain
// has no transitions or the iteration fails to converge within maxIter
// sweeps. The chain must be irreducible for the result to be meaningful.
func (c *Chain) stationaryPower(tol float64, maxIter int) ([]float64, error) {
	if tol <= 0 || maxIter <= 0 {
		return nil, fmt.Errorf("markov: invalid tol %g or maxIter %d", tol, maxIter)
	}
	lambda := c.maxOutRate() * 1.05
	if lambda == 0 {
		return nil, fmt.Errorf("markov: chain has no transitions")
	}
	pi := make([]float64, c.n)
	next := make([]float64, c.n)
	for i := range pi {
		pi[i] = 1 / float64(c.n)
	}
	for iter := 0; iter < maxIter; iter++ {
		for i := range next {
			next[i] = 0
		}
		for from := 0; from < c.n; from++ {
			p := pi[from]
			if p == 0 {
				continue
			}
			// Self term of the uniformized DTMC.
			next[from] += p * (1 - c.out[from]/lambda)
			for _, tr := range c.edges[from] {
				next[tr.to] += p * tr.rate / lambda
			}
		}
		diff := 0.0
		sum := 0.0
		for i := range next {
			diff += math.Abs(next[i] - pi[i])
			sum += next[i]
		}
		// Renormalise against floating-point drift.
		for i := range next {
			next[i] /= sum
		}
		pi, next = next, pi
		if diff < tol {
			return pi, nil
		}
	}
	return nil, fmt.Errorf("markov: power iteration did not converge in %d sweeps", maxIter)
}

// stationaryDense computes the stationary distribution exactly by solving
// πQ = 0 with Σπ = 1 via dense Gaussian elimination with partial pivoting.
// Intended for chains up to a few thousand states. The chain must be
// irreducible; a singular system returns an error.
func (c *Chain) stationaryDense() ([]float64, error) {
	n := c.n
	// Build A = Qᵀ (columns of Q become rows: A[i][j] = Q[j][i]), then
	// replace the last row with the normalisation Σπ = 1.
	a := make([][]float64, n)
	for i := range a {
		a[i] = make([]float64, n+1)
	}
	for from := 0; from < n; from++ {
		a[from][from] -= c.out[from]
		for _, tr := range c.edges[from] {
			a[tr.to][from] += tr.rate
		}
	}
	// Transposed generator built directly above: a[i][j] = Q[j][i].
	for j := 0; j < n; j++ {
		a[n-1][j] = 1
	}
	a[n-1][n] = 1

	// Gaussian elimination with partial pivoting.
	for col := 0; col < n; col++ {
		pivot := col
		for r := col + 1; r < n; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[pivot][col]) {
				pivot = r
			}
		}
		if math.Abs(a[pivot][col]) < 1e-14 {
			return nil, fmt.Errorf("markov: singular system at column %d (chain not irreducible?)", col)
		}
		a[col], a[pivot] = a[pivot], a[col]
		inv := 1 / a[col][col]
		for r := 0; r < n; r++ {
			if r == col || a[r][col] == 0 {
				continue
			}
			f := a[r][col] * inv
			for k := col; k <= n; k++ {
				a[r][k] -= f * a[col][k]
			}
		}
	}
	pi := make([]float64, n)
	for i := 0; i < n; i++ {
		pi[i] = a[i][n] / a[i][i]
		if pi[i] < 0 && pi[i] > -1e-9 {
			pi[i] = 0 // clamp tiny negative round-off
		}
		if pi[i] < 0 {
			return nil, fmt.Errorf("markov: negative stationary probability %g at state %d", pi[i], i)
		}
	}
	return pi, nil
}

// Stationary picks a solver automatically: dense for chains up to
// denseLimit states, power iteration beyond.
func (c *Chain) Stationary() ([]float64, error) {
	const denseLimit = 1200
	if c.n <= denseLimit {
		return c.stationaryDense()
	}
	return c.stationaryPower(1e-12, 2_000_000)
}
