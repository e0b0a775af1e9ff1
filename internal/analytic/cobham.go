package analytic

import (
	"fmt"
	"math"
)

// PriorityClass describes one class of the non-preemptive M/M/1 priority
// queue of §4.2.2: Poisson arrivals at rate Lambda, exponential service at
// rate Mu. Classes are ordered highest priority first.
type PriorityClass struct {
	Lambda, Mu float64
}

// CobhamWaits returns the expected QUEUEING delay (time from arrival to start
// of service) of each class in a non-preemptive head-of-line priority M/M/1
// queue, via the paper's Eq. 18 (Cobham's formula):
//
//	E[W⁽ⁱ⁾] = (Σ_j ρ_j/μ_j) / ((1−σ_{i−1})(1−σ_i)) ,  σ_i = Σ_{j≤i} ρ_j
//
// Classes whose σ_i ≥ 1 (and all lower classes) are saturated and get +Inf.
// An error is returned for invalid inputs only; saturation is expressible.
func CobhamWaits(classes []PriorityClass) ([]float64, error) {
	if len(classes) == 0 {
		return nil, fmt.Errorf("analytic: no priority classes")
	}
	residual := 0.0 // Σ_j ρ_j/μ_j  (mean residual work in service)
	for i, c := range classes {
		if c.Lambda < 0 || math.IsNaN(c.Lambda) || math.IsInf(c.Lambda, 0) {
			return nil, fmt.Errorf("analytic: class %d invalid lambda %g", i, c.Lambda)
		}
		if c.Mu <= 0 || math.IsNaN(c.Mu) || math.IsInf(c.Mu, 0) {
			return nil, fmt.Errorf("analytic: class %d invalid mu %g", i, c.Mu)
		}
		rho := c.Lambda / c.Mu
		residual += rho / c.Mu
	}
	waits := make([]float64, len(classes))
	sigmaPrev := 0.0
	for i, c := range classes {
		sigma := sigmaPrev + c.Lambda/c.Mu
		if sigmaPrev >= 1 || sigma >= 1 {
			waits[i] = math.Inf(1)
		} else {
			waits[i] = residual / ((1 - sigmaPrev) * (1 - sigma))
		}
		sigmaPrev = sigma
	}
	return waits, nil
}

// OverallPullWait returns Eq. 18's aggregate E[W_pull^q]: the
// arrival-rate-weighted average of the per-class waits. Classes with zero
// arrival rate contribute nothing. Returns +Inf if any contributing class is
// saturated.
func OverallPullWait(classes []PriorityClass, waits []float64) (float64, error) {
	if len(classes) != len(waits) {
		return 0, fmt.Errorf("analytic: %d classes but %d waits", len(classes), len(waits))
	}
	total := 0.0
	for _, c := range classes {
		total += c.Lambda
	}
	if total == 0 {
		return 0, nil
	}
	sum := 0.0
	for i, c := range classes {
		if c.Lambda == 0 {
			continue
		}
		sum += c.Lambda / total * waits[i]
	}
	return sum, nil
}

// FCFSWait returns the M/M/1 FCFS expected queueing delay
// W_q = ρ/(μ−λ) = λ/(μ(μ−λ)); +Inf when λ ≥ μ. This is the α = 1 (priority
// ignored) degenerate case of the pull model.
func FCFSWait(lambda, mu float64) float64 {
	if lambda < 0 || mu <= 0 || math.IsNaN(lambda) || math.IsNaN(mu) {
		panic(fmt.Sprintf("analytic: FCFSWait(λ=%g, μ=%g)", lambda, mu))
	}
	if lambda >= mu {
		return math.Inf(1)
	}
	return lambda / (mu * (mu - lambda))
}

// GeneralPriorityClass describes one class of a non-preemptive M/G/1
// priority queue: Poisson arrivals at Lambda, mean service time ES and mean
// SQUARED service time ES2. The exponential case has ES2 = 2·ES².
type GeneralPriorityClass struct {
	Lambda, ES, ES2 float64
}

// CobhamWaitsMG1 is Cobham's formula for general service-time
// distributions: the residual work is R = Σ_j λ_j·E[S_j²]/2 and
//
//	E[W⁽ⁱ⁾] = R / ((1−σ_{i−1})(1−σ_i)) ,  σ_i = Σ_{j≤i} λ_j·E[S_j]
//
// Deterministic transmission times (the simulator's case: an item's length
// is fixed) have E[S²] = E[S]², which HALVES the residual relative to the
// exponential model — CobhamWaits with Mu = 1/ES is the E[S²] = 2·E[S]²
// special case of this function.
//
//lint:allow deadcode oracle: Cobham's M/G/1 waits, the deterministic-service closed form; its tests pin it against CobhamWaits
func CobhamWaitsMG1(classes []GeneralPriorityClass) ([]float64, error) {
	if len(classes) == 0 {
		return nil, fmt.Errorf("analytic: no priority classes")
	}
	residual := 0.0
	for i, c := range classes {
		if c.Lambda < 0 || math.IsNaN(c.Lambda) || math.IsInf(c.Lambda, 0) {
			return nil, fmt.Errorf("analytic: class %d invalid lambda %g", i, c.Lambda)
		}
		if c.ES <= 0 || math.IsNaN(c.ES) || math.IsInf(c.ES, 0) {
			return nil, fmt.Errorf("analytic: class %d invalid E[S] %g", i, c.ES)
		}
		if c.ES2 < c.ES*c.ES || math.IsNaN(c.ES2) || math.IsInf(c.ES2, 0) {
			return nil, fmt.Errorf("analytic: class %d E[S²]=%g below E[S]²=%g", i, c.ES2, c.ES*c.ES)
		}
		residual += c.Lambda * c.ES2 / 2
	}
	waits := make([]float64, len(classes))
	sigmaPrev := 0.0
	for i, c := range classes {
		sigma := sigmaPrev + c.Lambda*c.ES
		if sigmaPrev >= 1 || sigma >= 1 {
			waits[i] = math.Inf(1)
		} else {
			waits[i] = residual / ((1 - sigmaPrev) * (1 - sigma))
		}
		sigmaPrev = sigma
	}
	return waits, nil
}
