package analytic

import (
	"fmt"
	"math"

	"hybridqos/internal/catalog"
	"hybridqos/internal/clients"
)

// Variant selects how the hybrid access time (Eq. 19) is evaluated.
type Variant int

const (
	// Literal evaluates the paper's formulas verbatim: μ₁ = Σ_{i≤K} P_i·L_i
	// and μ₂ = Σ_{i>K} P_i·L_i used directly as rates (assumption 2), the
	// push term (1/2μ₁)·Σ_{i≤K} L_i·P_i, and request-level Cobham waits.
	// Documented in DESIGN.md as internally inconsistent — it is provided
	// so the discrepancy is reproducible, not because it predicts well.
	Literal Variant = iota
	// Engineering is the request-level correction: push wait = half the
	// actual flat cycle Σ_{i≤K} L_i, pull service rate = 1/(mean pull item
	// length + mean interleaved push transmission), Cobham per-class waits.
	// Still treats every request as a separate service (no multicast), so
	// it saturates at high load.
	Engineering
	// Refined is the item-level model: the pull queue holds DISTINCT items,
	// one transmission satisfies all pending requests (multicast), and the
	// item entry rate is found by a fixed point on the item waiting time.
	// Per-class differentiation comes from Cobham over governing-class
	// streams blended by α. This is the variant that tracks the simulator
	// (Figure 7).
	Refined
)

// String names the variant.
func (v Variant) String() string {
	switch v {
	case Literal:
		return "literal"
	case Engineering:
		return "engineering"
	case Refined:
		return "refined"
	default:
		return fmt.Sprintf("Variant(%d)", int(v))
	}
}

// Model evaluates expected access times for the hybrid scheduler.
type Model struct {
	// Catalog is the item database.
	Catalog *catalog.Catalog
	// Classes is the service classification.
	Classes *clients.Classification
	// LambdaTotal is the aggregate request rate λ′ (paper: 5).
	LambdaTotal float64
	// Alpha is the stretch/priority mixing fraction of Eq. 1.
	Alpha float64
	// Variant selects the evaluation mode.
	Variant Variant
}

// Validate reports whether the model is usable.
func (m Model) Validate() error {
	if m.Catalog == nil {
		return fmt.Errorf("analytic: nil catalog")
	}
	if m.Classes == nil {
		return fmt.Errorf("analytic: nil classification")
	}
	if m.LambdaTotal <= 0 || math.IsNaN(m.LambdaTotal) || math.IsInf(m.LambdaTotal, 0) {
		return fmt.Errorf("analytic: invalid lambda %g", m.LambdaTotal)
	}
	if m.Alpha < 0 || m.Alpha > 1 || math.IsNaN(m.Alpha) {
		return fmt.Errorf("analytic: alpha %g outside [0,1]", m.Alpha)
	}
	if m.Variant < Literal || m.Variant > Refined {
		return fmt.Errorf("analytic: unknown variant %d", int(m.Variant))
	}
	return nil
}

// ClassDelay is one class's predicted performance at a given cutoff.
type ClassDelay struct {
	// Class is the service class.
	Class clients.Class
	// Wait is the expected access time (request arrival to end of item
	// transmission) for the class, in broadcast units.
	Wait float64
	// Cost is the prioritised cost q_c · Wait (§5.3).
	Cost float64
}

// Result is the model evaluated at one cutoff point.
type Result struct {
	// K is the cutoff.
	K int
	// Overall is the class-probability-weighted expected access time.
	Overall float64
	// PerClass holds each class's delay and prioritised cost.
	PerClass []ClassDelay
	// TotalCost is Σ_c q_c · Wait_c, the quantity Figures 5–6 minimise.
	TotalCost float64
}

// AccessTime evaluates the model at cutoff k (0 ≤ k ≤ D).
func (m Model) AccessTime(k int) (Result, error) {
	if err := m.Validate(); err != nil {
		return Result{}, err
	}
	if k < 0 || k > m.Catalog.D() {
		return Result{}, fmt.Errorf("analytic: cutoff %d out of [0,%d]", k, m.Catalog.D())
	}
	switch m.Variant {
	case Literal:
		return m.literal(k)
	case Engineering:
		return m.engineering(k)
	default:
		return m.refined(k)
	}
}

// pushWait returns the expected access time of a push request under the flat
// schedule: half the broadcast cycle to the item's next appearance, plus the
// popularity-weighted transmission time of the item itself.
func (m Model) pushWait(k int) float64 {
	if k == 0 {
		return 0
	}
	mass := m.Catalog.PushMass(k)
	if mass == 0 {
		return 0
	}
	return m.Catalog.PushCycleLength(k)/2 + m.Catalog.WeightedPushLength(k)/mass
}

// perClassLambdas splits a total arrival rate by class probability.
func (m Model) perClassLambdas(total float64) []float64 {
	probs := m.Classes.Probs()
	out := make([]float64, len(probs))
	for c, p := range probs {
		out[c] = total * p
	}
	return out
}

// assemble builds a Result from per-class pull waits and the push wait.
func (m Model) assemble(k int, pushW, pullService float64, pullWaits []float64) Result {
	pushMass := m.Catalog.PushMass(k)
	pullMass := m.Catalog.PullMass(k)
	res := Result{K: k}
	probs := m.Classes.Probs()
	weights := m.Classes.Weights()
	for c := range probs {
		pullTotal := pullWaits[c] + pullService
		wait := pushMass*pushW + pullMass*pullTotal
		cd := ClassDelay{Class: clients.Class(c), Wait: wait, Cost: weights[c] * wait}
		res.PerClass = append(res.PerClass, cd)
		res.Overall += probs[c] * wait
		res.TotalCost += cd.Cost
	}
	return res
}

// literal evaluates Eq. 19 with the paper's own μ definitions.
func (m Model) literal(k int) (Result, error) {
	mu1 := m.Catalog.WeightedPushLength(k)
	mu2 := m.Catalog.WeightedPullLength(k)
	pullMass := m.Catalog.PullMass(k)
	lambdaPull := m.LambdaTotal * pullMass

	// Push term of Eq. 19: (1/2μ₁)·Σ_{i≤K} L_i·P_i. With μ₁ defined as that
	// same sum the term degenerates to 1/2 for any k ≥ 1 — reproduced
	// verbatim, per DESIGN.md inconsistency #1.
	pushW := 0.0
	if k > 0 && mu1 > 0 {
		pushW = m.Catalog.WeightedPushLength(k) / (2 * mu1)
	}

	waits := make([]float64, m.Classes.NumClasses())
	if pullMass > 0 && mu2 > 0 {
		lams := m.perClassLambdas(lambdaPull)
		classes := make([]PriorityClass, len(lams))
		for c, l := range lams {
			classes[c] = PriorityClass{Lambda: l, Mu: mu2}
		}
		cw, err := CobhamWaits(classes)
		if err != nil {
			return Result{}, err
		}
		waits = cw
	}
	// Eq. 19 adds no explicit service time to the pull term.
	return m.assemble(k, pushW, 0, waits), nil
}

// engineering evaluates the request-level corrected model.
func (m Model) engineering(k int) (Result, error) {
	pushW := m.pushWait(k)
	pullMass := m.Catalog.PullMass(k)
	waits := make([]float64, m.Classes.NumClasses())
	pullService := 0.0
	if pullMass > 0 {
		pullService = m.Catalog.MeanPullServiceTime(k)
		// Each pull service is interleaved with one flat push transmission,
		// so the effective per-request service interval includes it.
		interleave := 0.0
		if k > 0 {
			interleave = m.Catalog.PushCycleLength(k) / float64(k)
		}
		mu := 1 / (pullService + interleave)
		lambdaPull := m.LambdaTotal * pullMass
		lams := m.perClassLambdas(lambdaPull)
		classes := make([]PriorityClass, len(lams))
		for c, l := range lams {
			classes[c] = PriorityClass{Lambda: l, Mu: mu}
		}
		cw, err := CobhamWaits(classes)
		if err != nil {
			return Result{}, err
		}
		fcfs := FCFSWait(lambdaPull, mu)
		for c := range waits {
			waits[c] = m.Alpha*fcfs + (1-m.Alpha)*cw[c]
		}
	}
	return m.assemble(k, pushW, pullService, waits), nil
}

// refinedState carries the fixed-point solution of the item-level model.
type refinedState struct {
	// W is the mean item waiting time in the pull queue (FCFS reference).
	W float64
	// A is the item entry rate into the pull queue.
	A float64
	// UBar is the request-weighted probability the requested item is
	// already queued on arrival.
	UBar float64
	// MeanServedLen is the entry-rate-weighted mean length of served items.
	MeanServedLen float64
}

// solveRefined runs the fixed point described in DESIGN.md: item i (rank
// i > k) accrues requests at r_i = λ′·P_i; it is queued a fraction
// u_i = r_i·W/(1+r_i·W) of the time (renewal argument: cycles of idle
// 1/r_i then queued W); the queue's item entry rate is A(W) = Σ r_i/(1+r_i·W)
// and its service rate is one item per (mean pull length + mean interleaved
// push transmission). W must satisfy W = Wq_{M/M/1}(A(W), S). A(W) is
// decreasing and Wq is increasing in A, so bisection on W converges.
func (m Model) solveRefined(k int) refinedState {
	d := m.Catalog.D()
	pullMass := m.Catalog.PullMass(k)
	st := refinedState{}
	if pullMass == 0 || k == d {
		return st
	}
	rates := make([]float64, 0, d-k)
	lengths := make([]float64, 0, d-k)
	for i := k + 1; i <= d; i++ {
		rates = append(rates, m.LambdaTotal*m.Catalog.Prob(i))
		lengths = append(lengths, m.Catalog.Length(i))
	}
	interleave := 0.0
	if k > 0 {
		interleave = m.Catalog.PushCycleLength(k) / float64(k)
	}

	// Entry rate and served-length mix for a candidate W.
	entry := func(w float64) (a float64, meanLen float64) {
		var lenSum float64
		for j, r := range rates {
			e := r / (1 + r*w)
			a += e
			lenSum += e * lengths[j]
		}
		if a > 0 {
			meanLen = lenSum / a
		}
		return a, meanLen
	}
	// g(w) = Wq(A(w)) − w; g(0) ≥ 0, g(wMax) < 0 for large wMax.
	g := func(w float64) float64 {
		a, meanLen := entry(w)
		s := 1 / (meanLen + interleave)
		if a >= s {
			return math.Inf(1) // queue grows: required wait exceeds w
		}
		return a/(s*(s-a)) - w
	}
	lo, hi := 0.0, 1.0
	for g(hi) > 0 && hi < 1e9 {
		hi *= 2
	}
	for iter := 0; iter < 200 && hi-lo > 1e-9*(1+hi); iter++ {
		mid := (lo + hi) / 2
		if g(mid) > 0 {
			lo = mid
		} else {
			hi = mid
		}
	}
	st.W = (lo + hi) / 2
	st.A, st.MeanServedLen = entry(st.W)
	// Request-weighted queued probability.
	var ubar float64
	for _, r := range rates {
		ui := r * st.W / (1 + r*st.W)
		ubar += r / (m.LambdaTotal * pullMass) * ui
	}
	st.UBar = ubar
	return st
}

// governingProbs returns, for a transmission clearing nBar pending requests
// with i.i.d. classes, the probability that the governing (highest) class is
// c: g_c = (1−Σ_{j<c} p_j)^n̄ − (1−Σ_{j≤c} p_j)^n̄.
func (m Model) governingProbs(nBar float64) []float64 {
	probs := m.Classes.Probs()
	g := make([]float64, len(probs))
	if nBar < 1 {
		nBar = 1
	}
	cum := 0.0
	prevTail := 1.0 // (1 - cum_{<c})^nBar
	for c, p := range probs {
		cum += p
		tail := math.Pow(1-cum, nBar)
		g[c] = prevTail - tail
		prevTail = tail
	}
	return g
}

// effectivePushWait returns the expected access time of a push request
// accounting for pull interleaving: when the pull queue is busy, each push
// slot is followed by a pull transmission, stretching the broadcast cycle.
// With item throughput A and mean served pull length L̄p, the push-slot rate
// is n_p = (1 − A·L̄p)/L̄push and one full rotation of the K push items takes
// K/n_p broadcast units.
func (m Model) effectivePushWait(k int, st refinedState) float64 {
	if k == 0 {
		return 0
	}
	mass := m.Catalog.PushMass(k)
	if mass == 0 {
		return 0
	}
	meanPushLen := m.Catalog.PushCycleLength(k) / float64(k)
	pullTime := st.A * st.MeanServedLen
	if pullTime >= 1 {
		pullTime = 0.999 // physically impossible; clamp defensively
	}
	cycle := float64(k) * meanPushLen / (1 - pullTime)
	return cycle/2 + m.Catalog.WeightedPushLength(k)/mass
}

// refined evaluates the item-level multicast model.
//
// Aggregate wait comes from the item-level fixed point (solveRefined), which
// knows about multicast clearing. Per-class differentiation comes from a
// γ-accumulation argument: a queued item's importance factor grows at rate
// r_i·(α/L_i² + (1−α)·q̄) as requests accrue (q̄ = mean client priority), and
// the item is served when γ crosses the prevailing service threshold. A
// tagged class-c request contributes α/L_i² + (1−α)·q_c — exceeding the
// average contribution by (1−α)(q_c − q̄) — so it advances its item's service
// by that increment divided by the item's γ growth rate:
//
//	W_c = wBase − (1−α)(q_c−q̄)/λ_pull · Σ_{i>K} 1/(α/L_i² + (1−α)·q̄)
//
// The request-probability-weighted mean of the shifts is exactly zero, so
// priority REDISTRIBUTES waiting between classes without changing the
// aggregate, which is what the simulator exhibits. α = 1 collapses every
// class to the same wait.
func (m Model) refined(k int) (Result, error) {
	st := m.solveRefined(k)
	pushW := m.effectivePushWait(k, st)
	waits := make([]float64, m.Classes.NumClasses())
	pullService := 0.0
	if m.Catalog.PullMass(k) > 0 {
		pullService = st.MeanServedLen
		// A request whose item is already queued (prob ū) waits only the
		// residual (≈ half) of the item's wait.
		wBase := st.W * (1 - st.UBar/2)
		lambdaPull := m.LambdaTotal * m.Catalog.PullMass(k)
		if wBase > 0 && lambdaPull > 0 {
			qbar := 0.0
			probs := m.Classes.Probs()
			weights := m.Classes.Weights()
			for c, p := range probs {
				qbar += p * weights[c]
			}
			sens := 0.0
			for i := k + 1; i <= m.Catalog.D(); i++ {
				l := m.Catalog.Length(i)
				sens += 1 / (m.Alpha/(l*l) + (1-m.Alpha)*qbar)
			}
			for c := range waits {
				shift := (1 - m.Alpha) * (weights[c] - qbar) / lambdaPull * sens
				w := wBase - shift
				// The shift is a first-order perturbation; keep waits
				// physical when it would overshoot.
				if w < wBase/20 {
					w = wBase / 20
				}
				waits[c] = w
			}
		}
	}
	return m.assemble(k, pushW, pullService, waits), nil
}

// Sweep evaluates the model at every cutoff in [kMin, kMax].
func (m Model) Sweep(kMin, kMax int) ([]Result, error) {
	if kMin < 0 || kMax > m.Catalog.D() || kMin > kMax {
		return nil, fmt.Errorf("analytic: sweep range [%d,%d] invalid for D=%d", kMin, kMax, m.Catalog.D())
	}
	out := make([]Result, 0, kMax-kMin+1)
	for k := kMin; k <= kMax; k++ {
		r, err := m.AccessTime(k)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// OptimalCutoff returns the cutoff in [kMin, kMax] minimising the given
// objective over the sweep.
func (m Model) OptimalCutoff(kMin, kMax int, objective func(Result) float64) (Result, error) {
	results, err := m.Sweep(kMin, kMax)
	if err != nil {
		return Result{}, err
	}
	best := results[0]
	bestVal := objective(best)
	for _, r := range results[1:] {
		if v := objective(r); v < bestVal {
			best, bestVal = r, v
		}
	}
	return best, nil
}

// ByOverallDelay is an OptimalCutoff objective minimising mean access time.
func ByOverallDelay(r Result) float64 { return r.Overall }

// ByTotalCost is an OptimalCutoff objective minimising Σ_c q_c·Wait_c, the
// paper's prioritised cost (§5.3).
func ByTotalCost(r Result) float64 { return r.TotalCost }
