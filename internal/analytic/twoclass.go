package analytic

import (
	"fmt"
	"math"

	"hybridqos/internal/markov"
)

// TwoClassParams parameterises the §4.2.1 two-priority-class non-preemptive
// pull chain: class-1 (higher importance) arrivals at Lambda1, class-2 at
// Lambda2, a single exponential server at rate Mu, truncated at C customers
// of each class. The paper derives a two-dimensional z-transform H(y,z) for
// this chain but leaves P_{0,2}(z) unresolved; we solve the truncated chain
// exactly instead.
type TwoClassParams struct {
	Lambda1, Lambda2, Mu float64
	C                    int
}

// Validate reports whether the parameters are usable.
func (p TwoClassParams) Validate() error {
	for _, v := range []struct {
		name string
		x    float64
	}{{"lambda1", p.Lambda1}, {"lambda2", p.Lambda2}} {
		if v.x < 0 || math.IsNaN(v.x) || math.IsInf(v.x, 0) {
			return fmt.Errorf("analytic: invalid %s %g", v.name, v.x)
		}
	}
	if p.Lambda1+p.Lambda2 <= 0 {
		return fmt.Errorf("analytic: both arrival rates zero")
	}
	if p.Mu <= 0 || math.IsNaN(p.Mu) || math.IsInf(p.Mu, 0) {
		return fmt.Errorf("analytic: invalid mu %g", p.Mu)
	}
	if p.C < 2 {
		return fmt.Errorf("analytic: truncation C=%d too small", p.C)
	}
	return nil
}

// TwoClassResult is the solved §4.2.1 chain.
type TwoClassResult struct {
	// L1, L2 are the expected number of class-1/class-2 customers in the
	// system (the paper's ∂H/∂y and ∂H/∂z at y=z=1).
	L1, L2 float64
	// W1, W2 are the expected system times per class via Little's law
	// (E[W_i] = L_i/λ_i); NaN for a class with zero arrivals.
	W1, W2 float64
	// Idle is p(0,0,0).
	//lint:allow deadcode oracle: TestTwoClassIdleMatchesMM1 checks the solved chain against M/M/1's idle probability
	Idle float64
}

// SolveTwoClassChain builds and solves the truncated two-class
// non-preemptive priority chain.
//
// State (m, n, r): m class-1 and n class-2 customers in the system
// (including the one in service), r ∈ {0: idle, 1: serving class-1,
// 2: serving class-2}. Non-preemptive head-of-line: on a service completion
// the server takes a class-1 customer if any wait, else a class-2 customer,
// else idles; an arrival never interrupts the customer in service.
func SolveTwoClassChain(p TwoClassParams) (TwoClassResult, error) {
	if err := p.Validate(); err != nil {
		return TwoClassResult{}, err
	}
	// Encode states. Valid: (0,0,0); (m,n,1) with m>=1; (m,n,2) with n>=1.
	// Dense index over the (C+1)x(C+1)x{1,2} grid plus idle; invalid
	// combinations are simply never linked, and the dense solver requires
	// irreducibility, so we index only reachable states.
	type key struct {
		m, n, r int
	}
	idx := make(map[key]int)
	var states []key
	add := func(k key) {
		if _, ok := idx[k]; !ok {
			idx[k] = len(states)
			states = append(states, k)
		}
	}
	add(key{0, 0, 0})
	for m := 1; m <= p.C; m++ {
		for n := 0; n <= p.C; n++ {
			add(key{m, n, 1})
		}
	}
	for n := 1; n <= p.C; n++ {
		for m := 0; m <= p.C; m++ {
			add(key{m, n, 2})
		}
	}
	ch := markov.NewChain(len(states))
	rate := func(from, to key, r float64) {
		fi, ok := idx[from]
		if !ok {
			panic(fmt.Sprintf("analytic: unindexed state %+v", from))
		}
		ti, ok := idx[to]
		if !ok {
			panic(fmt.Sprintf("analytic: unindexed state %+v", to))
		}
		ch.AddRate(fi, ti, r)
	}

	// Idle transitions.
	if p.Lambda1 > 0 {
		rate(key{0, 0, 0}, key{1, 0, 1}, p.Lambda1)
	}
	if p.Lambda2 > 0 {
		rate(key{0, 0, 0}, key{0, 1, 2}, p.Lambda2)
	}
	for _, s := range states {
		if s.r == 0 {
			continue
		}
		// Arrivals (dropped at the truncation boundary).
		if s.m < p.C && p.Lambda1 > 0 {
			rate(s, key{s.m + 1, s.n, s.r}, p.Lambda1)
		}
		if s.n < p.C && p.Lambda2 > 0 {
			rate(s, key{s.m, s.n + 1, s.r}, p.Lambda2)
		}
		// Service completion.
		switch s.r {
		case 1:
			m, n := s.m-1, s.n // class-1 departs
			switch {
			case m >= 1:
				rate(s, key{m, n, 1}, p.Mu)
			case n >= 1:
				rate(s, key{m, n, 2}, p.Mu)
			default:
				rate(s, key{0, 0, 0}, p.Mu)
			}
		case 2:
			m, n := s.m, s.n-1 // class-2 departs
			switch {
			case m >= 1:
				rate(s, key{m, n, 1}, p.Mu)
			case n >= 1:
				rate(s, key{m, n, 2}, p.Mu)
			default:
				rate(s, key{0, 0, 0}, p.Mu)
			}
		}
	}

	pi, err := ch.Stationary()
	if err != nil {
		return TwoClassResult{}, fmt.Errorf("analytic: two-class chain: %w", err)
	}
	var res TwoClassResult
	var loss1, loss2 float64
	for i, s := range states {
		res.L1 += float64(s.m) * pi[i]
		res.L2 += float64(s.n) * pi[i]
		if s.r == 0 {
			res.Idle += pi[i]
		}
		if s.m == p.C {
			loss1 += pi[i]
		}
		if s.n == p.C {
			loss2 += pi[i]
		}
	}
	if p.Lambda1 > 0 {
		res.W1 = res.L1 / (p.Lambda1 * (1 - loss1))
	} else {
		res.W1 = math.NaN()
	}
	if p.Lambda2 > 0 {
		res.W2 = res.L2 / (p.Lambda2 * (1 - loss2))
	} else {
		res.W2 = math.NaN()
	}
	return res, nil
}
