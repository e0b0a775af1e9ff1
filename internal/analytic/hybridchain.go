// Package analytic implements the paper's performance models (section 4):
// the push/pull birth–death chain of §4.1, the two-priority-class pull chain
// of §4.2.1 (solved numerically — the printed z-transform solution is
// under-determined), Cobham's non-preemptive multi-class waiting times of
// §4.2.2 (Eq. 18), and the hybrid expected-access-time model (Eq. 19) in
// three variants: the paper's literal formulas, a request-level engineering
// correction, and an item-level refined model that captures the multicast
// effect (one transmission satisfies every pending request) and therefore
// tracks the simulator — the curve used for Figure 7's "analytical" series.
package analytic

import (
	"fmt"
	"math"

	"hybridqos/internal/markov"
)

// HybridChainParams parameterises the §4.1 birth–death model of the hybrid
// server: Poisson arrivals into the pull system at rate Lambda, exponential
// push service at rate Mu1 and pull service at rate Mu2, truncated at C
// pull customers.
type HybridChainParams struct {
	Lambda, Mu1, Mu2 float64
	C                int
}

// Validate reports whether the parameters are usable.
func (p HybridChainParams) Validate() error {
	for _, v := range []struct {
		name string
		x    float64
	}{{"lambda", p.Lambda}, {"mu1", p.Mu1}, {"mu2", p.Mu2}} {
		if v.x <= 0 || math.IsNaN(v.x) || math.IsInf(v.x, 0) {
			return fmt.Errorf("analytic: invalid %s %g", v.name, v.x)
		}
	}
	if p.C < 1 {
		return fmt.Errorf("analytic: truncation C=%d", p.C)
	}
	return nil
}

// HybridStationary is the solved §4.1 chain.
type HybridStationary struct {
	// P00 is the idle probability p(0,0).
	P00 float64
	// PullBusy is the stationary probability the server is in the pull
	// phase (paper: ≈ ρ = λ/μ₂ in the untruncated chain).
	//lint:allow deadcode oracle: TestHybridChainMatchesDES and TestHybridChainPullOccupancy check it against the DES and the paper's ρ
	PullBusy float64
	// ELPull is E[L_pull], the expected number of customers in the pull
	// system (Eq. 5's left side, solved numerically).
	ELPull float64
	// NPushPhase is the paper's N: the expected pull-queue length
	// conditioned on the push phase being in service, times the push-phase
	// probability (the unnormalised partial mean the paper differentiates).
	NPushPhase float64
	// WPull is the expected pull waiting time via Little's law,
	// E[L_pull]/λ_effective (λ_effective accounts for the truncation loss,
	// negligible for adequate C).
	WPull float64
	// LossProb is the probability an arrival finds the chain at the
	// truncation boundary (diagnostic: increase C when this is material).
	LossProb float64
}

// SolveHybridChain builds the §4.1 chain and solves it exactly.
//
// States: (i, j) with i = pull customers 0..C and j ∈ {push=0, pull=1};
// (0, 1) is unreachable (the pull phase needs a customer). Transitions per
// the paper's flow-balance equations (2)–(3):
//
//	(i,0) → (i+1,0) rate λ   (arrival during push phase)
//	(i,1) → (i+1,1) rate λ   (arrival during pull phase)
//	(i,0) → (i,1)   rate μ₁  for i ≥ 1 (push completes, pull starts)
//	(i,1) → (i−1,0) rate μ₂  (pull completes, customer departs)
//
// At (0,0) push completions recycle into the flat broadcast (a self-loop,
// which does not affect the stationary law), matching the paper's out-rate
// of λ at (0,0).
func SolveHybridChain(p HybridChainParams) (HybridStationary, error) {
	if err := p.Validate(); err != nil {
		return HybridStationary{}, err
	}
	// State encoding: push states 0..C are (i,0); pull states C+1..2C are
	// (i,1) for i = 1..C.
	push := func(i int) int { return i }
	pull := func(i int) int { return p.C + i } // i >= 1
	ch := markov.NewChain(2*p.C + 1)
	for i := 0; i <= p.C; i++ {
		if i < p.C {
			ch.AddRate(push(i), push(i+1), p.Lambda)
		}
		if i >= 1 {
			ch.AddRate(push(i), pull(i), p.Mu1)
			if i < p.C {
				ch.AddRate(pull(i), pull(i+1), p.Lambda)
			}
			ch.AddRate(pull(i), push(i-1), p.Mu2)
		}
	}
	pi, err := ch.Stationary()
	if err != nil {
		return HybridStationary{}, fmt.Errorf("analytic: hybrid chain: %w", err)
	}

	var out HybridStationary
	out.P00 = pi[push(0)]
	for i := 1; i <= p.C; i++ {
		out.PullBusy += pi[pull(i)]
		out.ELPull += float64(i) * (pi[push(i)] + pi[pull(i)])
		out.NPushPhase += float64(i) * pi[push(i)]
	}
	out.LossProb = pi[push(p.C)] + pi[pull(p.C)]
	lambdaEff := p.Lambda * (1 - out.LossProb)
	if lambdaEff > 0 {
		out.WPull = out.ELPull / lambdaEff
	} else {
		out.WPull = math.Inf(1)
	}
	return out, nil
}

// ClosedFormIdle returns the paper's closed-form idle probability
// p(0,0) = 1 − ρ − ρ/f with ρ = λ/μ₂ and f = μ₁/μ₂ (§4.1). It can be
// negative when the chain is unstable — callers should treat a non-positive
// result as "no idle capacity".
func ClosedFormIdle(lambda, mu1, mu2 float64) float64 {
	rho := lambda / mu2
	f := mu1 / mu2
	return 1 - rho - rho/f
}
