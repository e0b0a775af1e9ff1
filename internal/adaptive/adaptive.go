// Package adaptive implements the paper's periodic cutoff re-optimisation
// (§3: "Periodically the algorithm is executed for different cutoff-points
// and obtains the optimal cutoff-point which minimizes the overall access
// time") as an online controller:
//
//  1. an Estimator observes the item rank of every request and maintains
//     per-item counts, from which it fits the Zipf skew θ by maximum
//     likelihood and estimates the arrival rate;
//  2. a Planner feeds the estimates into the refined analytic model and
//     returns the cost- (or delay-) optimal cutoff;
//  3. an EpochController glues them together: observe for an epoch,
//     re-plan, expose the recommended cutoff.
//
// Nothing here simulates: re-planning costs microseconds, which is what
// makes running it "periodically" on a live server plausible.
package adaptive

import (
	"fmt"
	"math"
	"sort"

	"hybridqos/internal/analytic"
	"hybridqos/internal/catalog"
	"hybridqos/internal/clients"
)

// Estimator accumulates request observations for one epoch.
type Estimator struct {
	counts []int64
	total  int64
}

// NewEstimator creates an estimator over a catalog of d items.
func NewEstimator(d int) (*Estimator, error) {
	if d < 2 {
		return nil, fmt.Errorf("adaptive: catalog size %d too small to fit a skew", d)
	}
	return &Estimator{counts: make([]int64, d)}, nil
}

// Observe records one request for the item at the given 1-based rank.
func (e *Estimator) Observe(rank int) {
	if rank < 1 || rank > len(e.counts) {
		panic(fmt.Sprintf("adaptive: rank %d out of [1,%d]", rank, len(e.counts)))
	}
	e.counts[rank-1]++
	e.total++
}

// Total returns the number of observations.
func (e *Estimator) Total() int64 { return e.total }

// Reset clears the window for the next epoch.
func (e *Estimator) Reset() {
	for i := range e.counts {
		e.counts[i] = 0
	}
	e.total = 0
}

// RankingByCount returns item ranks ordered by decreasing observed demand —
// the empirical popularity order a re-planned push set should follow. Ties
// break by original rank for determinism.
func (e *Estimator) RankingByCount() []int {
	order := make([]int, len(e.counts))
	for i := range order {
		order[i] = i + 1
	}
	sort.SliceStable(order, func(a, b int) bool {
		ca, cb := e.counts[order[a]-1], e.counts[order[b]-1]
		if ca != cb {
			return ca > cb
		}
		return order[a] < order[b]
	})
	return order
}

// LambdaEstimate returns the observed request rate over a window of the
// given duration.
func (e *Estimator) LambdaEstimate(duration float64) (float64, error) {
	if duration <= 0 || math.IsNaN(duration) || math.IsInf(duration, 0) {
		return 0, fmt.Errorf("adaptive: invalid window duration %g", duration)
	}
	return float64(e.total) / duration, nil
}

// ThetaMLE fits the Zipf skew by maximum likelihood to the SORTED observed
// counts: with n_(r) requests for the r-th most demanded item, it maximises
//
//	L(θ) = Σ_r n_(r)·ln P_r(θ),   P_r(θ) = r^(−θ) / Σ_j j^(−θ)
//
// over θ ∈ [0, 4] by golden-section search (L is unimodal in θ). It errors
// with fewer than 10 observations — too little signal to fit anything.
func (e *Estimator) ThetaMLE() (float64, error) {
	if e.total < 10 {
		return 0, fmt.Errorf("adaptive: only %d observations, need at least 10", e.total)
	}
	sorted := make([]int64, len(e.counts))
	copy(sorted, e.counts)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a] > sorted[b] })

	logLik := func(theta float64) float64 {
		// Normaliser Z(θ) and Σ n_(r)·(−θ·ln r) in one pass.
		z := 0.0
		s := 0.0
		for r := 1; r <= len(sorted); r++ {
			z += math.Pow(float64(r), -theta)
			if sorted[r-1] > 0 {
				s += float64(sorted[r-1]) * (-theta) * math.Log(float64(r))
			}
		}
		return s - float64(e.total)*math.Log(z)
	}
	lo, hi := 0.0, 4.0
	const phi = 0.6180339887498949 // golden ratio − 1
	a := hi - phi*(hi-lo)
	b := lo + phi*(hi-lo)
	fa, fb := logLik(a), logLik(b)
	for i := 0; i < 100 && hi-lo > 1e-6; i++ {
		if fa < fb {
			lo, a, fa = a, b, fb
			b = lo + phi*(hi-lo)
			fb = logLik(b)
		} else {
			hi, b, fb = b, a, fa
			a = hi - phi*(hi-lo)
			fa = logLik(a)
		}
	}
	return (lo + hi) / 2, nil
}

// Plan is one re-optimisation outcome.
type Plan struct {
	// Cutoff is the recommended K.
	Cutoff int
	// Theta and Lambda are the estimates the plan was computed from.
	Theta, Lambda float64
	// PredictedCost is the model's total cost at Cutoff.
	PredictedCost float64
	// Ranking is the empirical popularity order the push set should use
	// (ranks into the ORIGINAL catalog, hottest first).
	Ranking []int
}

// Planner turns estimates into a cutoff recommendation via the refined
// analytic model.
type Planner struct {
	// Classes is the service classification.
	Classes *clients.Classification
	// Alpha is the pull policy's mixing fraction.
	Alpha float64
	// Lengths are the catalog item lengths in ORIGINAL rank order.
	Lengths []float64
	// KMin and KMax bound the search.
	KMin, KMax int
	// ByDelay selects the mean-delay objective instead of total cost.
	ByDelay bool
}

// Replan fits the model to the estimator's current window and returns the
// optimal cutoff. windowDuration is the epoch length in broadcast units.
func (p Planner) Replan(e *Estimator, windowDuration float64) (Plan, error) {
	if p.Classes == nil {
		return Plan{}, fmt.Errorf("adaptive: nil classification")
	}
	if len(p.Lengths) != len(e.counts) {
		return Plan{}, fmt.Errorf("adaptive: %d lengths for %d items", len(p.Lengths), len(e.counts))
	}
	theta, err := e.ThetaMLE()
	if err != nil {
		return Plan{}, err
	}
	lambda, err := e.LambdaEstimate(windowDuration)
	if err != nil {
		return Plan{}, err
	}
	if lambda <= 0 {
		return Plan{}, fmt.Errorf("adaptive: zero observed arrival rate")
	}
	ranking := e.RankingByCount()
	// Re-rank the length vector to the empirical popularity order: the
	// model's rank r is the r-th most demanded item.
	lengths := make([]float64, len(ranking))
	for r, orig := range ranking {
		lengths[r] = p.Lengths[orig-1]
	}
	cat, err := catalog.FromLengths(lengths, theta)
	if err != nil {
		return Plan{}, err
	}
	model := analytic.Model{
		Catalog:     cat,
		Classes:     p.Classes,
		LambdaTotal: lambda,
		Alpha:       p.Alpha,
		Variant:     analytic.Refined,
	}
	kMin, kMax := p.KMin, p.KMax
	if kMin <= 0 {
		kMin = 1
	}
	if kMax <= 0 || kMax > cat.D()-1 {
		kMax = cat.D() - 1
	}
	objective := analytic.ByTotalCost
	if p.ByDelay {
		objective = analytic.ByOverallDelay
	}
	best, err := model.OptimalCutoff(kMin, kMax, objective)
	if err != nil {
		return Plan{}, err
	}
	return Plan{
		Cutoff:        best.K,
		Theta:         theta,
		Lambda:        lambda,
		PredictedCost: best.TotalCost,
		Ranking:       ranking,
	}, nil
}

// EpochController runs the observe/replan loop.
type EpochController struct {
	planner   Planner
	estimator *Estimator
	epochLen  float64
	epochEnd  float64
	current   Plan
	// History records every accepted plan (diagnostics).
	History []Plan
}

// NewEpochController creates a controller with an initial cutoff guess.
func NewEpochController(planner Planner, d int, epochLen float64, initialCutoff int) (*EpochController, error) {
	if epochLen <= 0 || math.IsNaN(epochLen) || math.IsInf(epochLen, 0) {
		return nil, fmt.Errorf("adaptive: invalid epoch length %g", epochLen)
	}
	if initialCutoff < 0 || initialCutoff > d {
		return nil, fmt.Errorf("adaptive: initial cutoff %d out of [0,%d]", initialCutoff, d)
	}
	est, err := NewEstimator(d)
	if err != nil {
		return nil, err
	}
	return &EpochController{
		planner:   planner,
		estimator: est,
		epochLen:  epochLen,
		epochEnd:  epochLen,
		current:   Plan{Cutoff: initialCutoff},
	}, nil
}

// Cutoff returns the currently recommended cutoff.
func (c *EpochController) Cutoff() int { return c.current.Cutoff }

// Observe feeds one request (rank at simulated time now) and re-plans when
// the epoch boundary passes. It returns true when a new plan was adopted.
func (c *EpochController) Observe(rank int, now float64) bool {
	c.estimator.Observe(rank)
	if now < c.epochEnd {
		return false
	}
	plan, err := c.planner.Replan(c.estimator, c.epochLen)
	c.estimator.Reset()
	c.epochEnd = now + c.epochLen
	if err != nil {
		return false // keep the previous plan; too little data this epoch
	}
	c.current = plan
	c.History = append(c.History, plan)
	return true
}
