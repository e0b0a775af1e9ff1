package analytic

import (
	"math"
	"testing"

	"hybridqos/internal/catalog"
	"hybridqos/internal/clients"
)

func paperModel(t *testing.T, theta, alpha float64, v Variant) Model {
	t.Helper()
	cat, err := catalog.Generate(catalog.PaperConfig(theta, 42))
	if err != nil {
		t.Fatal(err)
	}
	cl, err := clients.New(clients.PaperConfig())
	if err != nil {
		t.Fatal(err)
	}
	return Model{Catalog: cat, Classes: cl, LambdaTotal: 5, Alpha: alpha, Variant: v}
}

func TestModelValidate(t *testing.T) {
	m := paperModel(t, 0.6, 0.5, Refined)
	good := m
	if err := good.Validate(); err != nil {
		t.Fatalf("valid model rejected: %v", err)
	}
	cases := []func(*Model){
		func(m *Model) { m.Catalog = nil },
		func(m *Model) { m.Classes = nil },
		func(m *Model) { m.LambdaTotal = 0 },
		func(m *Model) { m.LambdaTotal = math.Inf(1) },
		func(m *Model) { m.Alpha = -0.1 },
		func(m *Model) { m.Alpha = 1.1 },
		func(m *Model) { m.Variant = Variant(9) },
	}
	for i, mutate := range cases {
		bad := m
		mutate(&bad)
		if err := bad.Validate(); err == nil {
			t.Errorf("case %d: invalid model accepted", i)
		}
	}
}

func TestVariantString(t *testing.T) {
	if Literal.String() != "literal" || Engineering.String() != "engineering" || Refined.String() != "refined" {
		t.Fatal("variant names wrong")
	}
	if Variant(7).String() != "Variant(7)" {
		t.Fatal("unknown variant string wrong")
	}
}

func TestAccessTimeCutoffBounds(t *testing.T) {
	m := paperModel(t, 0.6, 0.5, Refined)
	if _, err := m.AccessTime(-1); err == nil {
		t.Fatal("k=-1 accepted")
	}
	if _, err := m.AccessTime(101); err == nil {
		t.Fatal("k=101 accepted")
	}
	for _, k := range []int{0, 50, 100} {
		if _, err := m.AccessTime(k); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
	}
}

func TestRefinedClassOrdering(t *testing.T) {
	// With priority influence (α<1) Class-A must wait least, Class-C most.
	m := paperModel(t, 0.6, 0.25, Refined)
	res, err := m.AccessTime(40)
	if err != nil {
		t.Fatal(err)
	}
	a, b, c := res.PerClass[0].Wait, res.PerClass[1].Wait, res.PerClass[2].Wait
	if !(a < b && b < c) {
		t.Fatalf("class waits not ordered A<B<C: %g %g %g", a, b, c)
	}
}

func TestRefinedAlphaOneClassesEqual(t *testing.T) {
	// α=1 ignores priority: all classes see the same wait.
	m := paperModel(t, 0.6, 1.0, Refined)
	res, err := m.AccessTime(40)
	if err != nil {
		t.Fatal(err)
	}
	a, b, c := res.PerClass[0].Wait, res.PerClass[1].Wait, res.PerClass[2].Wait
	if math.Abs(a-b) > 1e-9 || math.Abs(b-c) > 1e-9 {
		t.Fatalf("α=1 waits differ: %g %g %g", a, b, c)
	}
}

func TestRefinedDelayShapeInK(t *testing.T) {
	// §5.2: delay is higher for low cutoffs; some interior K beats both
	// extremes for a mid skew.
	m := paperModel(t, 0.6, 0.5, Refined)
	res, err := m.Sweep(5, 95)
	if err != nil {
		t.Fatal(err)
	}
	first, last := res[0], res[len(res)-1]
	best, err := m.OptimalCutoff(5, 95, ByOverallDelay)
	if err != nil {
		t.Fatal(err)
	}
	if best.Overall > first.Overall || best.Overall > last.Overall {
		// The optimum can be at an extreme only if the curve is monotone;
		// then this check still holds with equality.
		t.Fatalf("optimum %g at K=%d worse than edges (%g at K=5, %g at K=95)",
			best.Overall, best.K, first.Overall, last.Overall)
	}
	if first.Overall <= best.Overall && first.K != best.K {
		t.Fatalf("low-K delay %g not above optimum %g", first.Overall, best.Overall)
	}
}

func TestRefinedCostsUseWeights(t *testing.T) {
	m := paperModel(t, 0.6, 0.25, Refined)
	res, err := m.AccessTime(40)
	if err != nil {
		t.Fatal(err)
	}
	totals := 0.0
	weights := m.Classes.Weights()
	for i, cd := range res.PerClass {
		want := weights[i] * cd.Wait
		if math.Abs(cd.Cost-want) > 1e-9 {
			t.Fatalf("class %d cost %g, want %g", i, cd.Cost, want)
		}
		totals += cd.Cost
	}
	if math.Abs(res.TotalCost-totals) > 1e-9 {
		t.Fatalf("TotalCost %g != Σ costs %g", res.TotalCost, totals)
	}
}

func TestRefinedLowerAlphaLowersTotalCost(t *testing.T) {
	// §5.3 / Figure 6: decreasing α (more priority influence) reduces the
	// total optimal prioritised cost.
	costAt := func(alpha float64) float64 {
		m := paperModel(t, 0.6, alpha, Refined)
		best, err := m.OptimalCutoff(5, 95, ByTotalCost)
		if err != nil {
			t.Fatal(err)
		}
		return best.TotalCost
	}
	lo, hi := costAt(0.0), costAt(1.0)
	if lo >= hi {
		t.Fatalf("optimal cost at α=0 (%g) not below α=1 (%g)", lo, hi)
	}
}

func TestLiteralPushTermDegenerate(t *testing.T) {
	// DESIGN.md inconsistency #1: the literal push term is 1/2 for any k≥1.
	// At k=D every request is pushed, so the whole delay is that term,
	// whatever the catalog's broadcast cycle.
	for _, theta := range []float64{0.2, 0.6, 1.4} {
		m := paperModel(t, theta, 0.5, Literal)
		res, err := m.AccessTime(m.Catalog.D())
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(res.Overall-0.5) > 1e-12 {
			t.Fatalf("theta=%g: literal pure-push delay %g, want 0.5", theta, res.Overall)
		}
	}
}

func TestEngineeringSaturatesAtLowK(t *testing.T) {
	// Without multicast the request-level model overloads when most traffic
	// is pull: λ′·PullMass exceeds the per-request service rate.
	m := paperModel(t, 0.6, 0.5, Engineering)
	res, err := m.AccessTime(5)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(res.Overall, 1) {
		t.Fatalf("engineering model at K=5 finite (%g); expected saturation", res.Overall)
	}
}

func TestRefinedFiniteEverywhere(t *testing.T) {
	// The multicast model must stay finite across the whole sweep — the
	// pull queue holds at most D−K distinct items.
	for _, theta := range []float64{0.2, 0.6, 1.0, 1.4} {
		m := paperModel(t, theta, 0.5, Refined)
		res, err := m.Sweep(0, 100)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range res {
			if math.IsInf(r.Overall, 0) || math.IsNaN(r.Overall) {
				t.Fatalf("theta=%g K=%d: overall=%g", theta, r.K, r.Overall)
			}
			if r.Overall < 0 {
				t.Fatalf("theta=%g K=%d: negative delay %g", theta, r.K, r.Overall)
			}
		}
	}
}

func TestRefinedEdgeCutoffs(t *testing.T) {
	m := paperModel(t, 0.6, 0.5, Refined)
	// k=D: pure push.
	res, err := m.AccessTime(100)
	if err != nil {
		t.Fatal(err)
	}
	// Pure push delay is about half the full cycle plus transmission.
	halfCycle := m.Catalog.PushCycleLength(100) / 2
	if res.Overall < halfCycle || res.Overall > halfCycle*1.3 {
		t.Fatalf("pure-push delay %g implausible for half-cycle %g", res.Overall, halfCycle)
	}
}

func TestGoverningProbsSumToOne(t *testing.T) {
	m := paperModel(t, 0.6, 0.5, Refined)
	for _, nBar := range []float64{0.5, 1, 2, 7.3, 50} {
		g := m.governingProbs(nBar)
		sum := 0.0
		for _, p := range g {
			if p < -1e-12 {
				t.Fatalf("negative governing prob %g at nBar=%g", p, nBar)
			}
			sum += p
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("governing probs sum to %g at nBar=%g", sum, nBar)
		}
	}
	// More requests per transmission ⇒ the top class governs more often.
	g1 := m.governingProbs(1)
	g20 := m.governingProbs(20)
	if g20[0] <= g1[0] {
		t.Fatalf("class-A governing prob not increasing in nBar: %g vs %g", g1[0], g20[0])
	}
}

func TestSweepErrors(t *testing.T) {
	m := paperModel(t, 0.6, 0.5, Refined)
	if _, err := m.Sweep(-1, 10); err == nil {
		t.Fatal("negative kMin accepted")
	}
	if _, err := m.Sweep(10, 5); err == nil {
		t.Fatal("inverted range accepted")
	}
	if _, err := m.Sweep(0, 101); err == nil {
		t.Fatal("kMax>D accepted")
	}
}

func TestHigherThetaShiftsOptimumLower(t *testing.T) {
	// With very skewed access, a small push set captures most traffic, so
	// the optimal cutoff should not grow as skew rises.
	bestAt := func(theta float64) int {
		m := paperModel(t, theta, 0.5, Refined)
		best, err := m.OptimalCutoff(1, 99, ByOverallDelay)
		if err != nil {
			t.Fatal(err)
		}
		return best.K
	}
	if k14, k02 := bestAt(1.4), bestAt(0.2); k14 > k02 {
		t.Fatalf("optimal K at θ=1.4 (%d) above θ=0.2 (%d)", k14, k02)
	}
}

func TestRefinedConservation(t *testing.T) {
	// The γ-shift differentiation must redistribute waiting without
	// changing the request-probability-weighted mean (unless the clamp
	// engaged): Σ p_c·W_c is α-invariant.
	m := paperModel(t, 0.6, 0.0, Refined)
	res0, err := m.AccessTime(40)
	if err != nil {
		t.Fatal(err)
	}
	m1 := paperModel(t, 0.6, 1.0, Refined)
	res1, err := m1.AccessTime(40)
	if err != nil {
		t.Fatal(err)
	}
	probs := m.Classes.Probs()
	mean := func(r Result) float64 {
		sum := 0.0
		for c, cd := range r.PerClass {
			sum += probs[c] * cd.Wait
		}
		return sum
	}
	if a, b := mean(res0), mean(res1); math.Abs(a-b)/b > 0.02 {
		t.Fatalf("weighted mean wait not conserved across α: %g vs %g", a, b)
	}
}

func TestRefinedShiftScalesWithWeightGap(t *testing.T) {
	// At α=0 the wait shifts are proportional to (q_c − q̄); classes
	// equidistant in weight should be equidistant in wait.
	m := paperModel(t, 0.6, 0.0, Refined)
	res, err := m.AccessTime(40)
	if err != nil {
		t.Fatal(err)
	}
	gapAB := res.PerClass[1].Wait - res.PerClass[0].Wait
	gapBC := res.PerClass[2].Wait - res.PerClass[1].Wait
	// Weights 3,2,1: both gaps correspond to Δq = 1.
	if math.Abs(gapAB-gapBC) > 1e-9 {
		t.Fatalf("equal weight gaps gave unequal wait gaps: %g vs %g", gapAB, gapBC)
	}
	if gapAB <= 0 {
		t.Fatalf("waits not increasing with class index: gap %g", gapAB)
	}
}
