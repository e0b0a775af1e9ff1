package analytic

import (
	"fmt"
	"math"

	"hybridqos/internal/catalog"
)

// BlockingProbability returns the probability that one pull transmission of
// an item with the given length is blocked under the paper's bandwidth
// model: the demand is 1 + Poisson(demandMean·length) units and the
// transmission blocks when it exceeds the governing class's capacity:
//
//	P[block] = P[1 + Poisson(β·L) > B] = P[Poisson(β·L) > B − 1]
//
// computed from the Poisson CDF. capacity ≤ 1 blocks whenever the Poisson
// part is positive; capacity < 1 blocks always.
func BlockingProbability(demandMean, length, capacity float64) (float64, error) {
	if demandMean < 0 || math.IsNaN(demandMean) || math.IsInf(demandMean, 0) {
		return 0, fmt.Errorf("analytic: invalid demand mean %g", demandMean)
	}
	if length <= 0 || math.IsNaN(length) || math.IsInf(length, 0) {
		return 0, fmt.Errorf("analytic: invalid length %g", length)
	}
	if math.IsNaN(capacity) {
		return 0, fmt.Errorf("analytic: invalid capacity %g", capacity)
	}
	if capacity < 1 {
		return 1, nil
	}
	mean := demandMean * length
	if mean == 0 {
		return 0, nil // demand is exactly 1 ≤ capacity
	}
	// P[Poisson(mean) <= floor(capacity-1)] summed in log space for
	// stability at large means.
	kMax := int(math.Floor(capacity - 1))
	cdf := 0.0
	logTerm := -mean // ln P[X=0]
	for k := 0; ; k++ {
		cdf += math.Exp(logTerm)
		if k >= kMax {
			break
		}
		logTerm += math.Log(mean) - math.Log(float64(k+1))
	}
	if cdf > 1 {
		cdf = 1
	}
	return 1 - cdf, nil
}

// ExpectedBlockingRate returns the expected per-transmission blocking
// probability for a class with the given bandwidth capacity, averaged over
// the pull items it would serve (weighted by each item's popularity within
// the pull set). This is the analytic counterpart of the simulator's
// per-class BlockingRate under strict partitioning.
//
//lint:allow deadcode oracle: TestBlockingRateMatchesAnalyticModel compares the simulated blocking rate against it
func ExpectedBlockingRate(cat *catalog.Catalog, k int, demandMean, capacity float64) (float64, error) {
	if cat == nil {
		return 0, fmt.Errorf("analytic: nil catalog")
	}
	if k < 0 || k >= cat.D() {
		return 0, fmt.Errorf("analytic: cutoff %d leaves no pull set for D=%d", k, cat.D())
	}
	mass := cat.PullMass(k)
	if mass == 0 {
		return 0, nil
	}
	sum := 0.0
	for i := k + 1; i <= cat.D(); i++ {
		p, err := BlockingProbability(demandMean, cat.Length(i), capacity)
		if err != nil {
			return 0, err
		}
		sum += cat.Prob(i) / mass * p
	}
	return sum, nil
}
