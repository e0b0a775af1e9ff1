package adaptive

import (
	"math"
	"testing"

	"hybridqos/internal/catalog"
	"hybridqos/internal/clients"
	"hybridqos/internal/rng"
	"hybridqos/internal/zipf"
)

func TestNewEstimatorValidation(t *testing.T) {
	if _, err := NewEstimator(1); err == nil {
		t.Fatal("d=1 accepted")
	}
	e, err := NewEstimator(10)
	if err != nil || e.Total() != 0 {
		t.Fatalf("valid estimator rejected: %v", err)
	}
}

func TestObservePanicsOutOfRange(t *testing.T) {
	e, _ := NewEstimator(5)
	for _, rank := range []int{0, 6} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("rank %d did not panic", rank)
				}
			}()
			e.Observe(rank)
		}()
	}
}

func TestThetaMLERecoversTrueSkew(t *testing.T) {
	r := rng.New(42)
	for _, trueTheta := range []float64{0.2, 0.6, 1.0, 1.4} {
		dist := zipf.Must(100, trueTheta)
		e, _ := NewEstimator(100)
		for i := 0; i < 200000; i++ {
			e.Observe(dist.Sample(r))
		}
		got, err := e.ThetaMLE()
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-trueTheta) > 0.05 {
			t.Errorf("true θ=%g: MLE %g", trueTheta, got)
		}
	}
}

func TestThetaMLEPermutationInvariant(t *testing.T) {
	// The MLE sorts counts, so a permuted (rotated) popularity must fit the
	// same skew — this is what lets the controller track a drifting hot set.
	r := rng.New(7)
	dist := zipf.Must(50, 0.9)
	e, _ := NewEstimator(50)
	for i := 0; i < 100000; i++ {
		rank := dist.Sample(r)
		rotated := (rank-1+17)%50 + 1
		e.Observe(rotated)
	}
	got, err := e.ThetaMLE()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-0.9) > 0.08 {
		t.Fatalf("rotated MLE %g, want ~0.9", got)
	}
}

func TestThetaMLETooFewObservations(t *testing.T) {
	e, _ := NewEstimator(10)
	for i := 0; i < 5; i++ {
		e.Observe(1)
	}
	if _, err := e.ThetaMLE(); err == nil {
		t.Fatal("sparse window accepted")
	}
}

func TestRankingByCount(t *testing.T) {
	e, _ := NewEstimator(4)
	// Item 3 hottest, then 1, then 2 and 4 tied (tie → original order).
	for i := 0; i < 5; i++ {
		e.Observe(3)
	}
	for i := 0; i < 3; i++ {
		e.Observe(1)
	}
	e.Observe(2)
	e.Observe(4)
	got := e.RankingByCount()
	want := []int{3, 1, 2, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ranking %v, want %v", got, want)
		}
	}
}

func TestLambdaEstimate(t *testing.T) {
	e, _ := NewEstimator(10)
	for i := 0; i < 500; i++ {
		e.Observe(i%10 + 1)
	}
	l, err := e.LambdaEstimate(100)
	if err != nil || l != 5 {
		t.Fatalf("lambda %g err %v", l, err)
	}
	if _, err := e.LambdaEstimate(0); err == nil {
		t.Fatal("zero duration accepted")
	}
}

func TestReset(t *testing.T) {
	e, _ := NewEstimator(10)
	e.Observe(1)
	e.Reset()
	if e.Total() != 0 {
		t.Fatal("reset did not clear")
	}
}

func plannerFor(t *testing.T, cat *catalog.Catalog) Planner {
	t.Helper()
	cl, err := clients.New(clients.PaperConfig())
	if err != nil {
		t.Fatal(err)
	}
	lengths := make([]float64, cat.D())
	for i := range lengths {
		lengths[i] = cat.Length(i + 1)
	}
	return Planner{Classes: cl, Alpha: 0.5, Lengths: lengths}
}

func TestReplanTracksSkew(t *testing.T) {
	cat := catalog.MustGenerate(catalog.PaperConfig(0.6, 1))
	p := plannerFor(t, cat)
	r := rng.New(3)

	planFor := func(theta float64) Plan {
		dist := zipf.Must(100, theta)
		e, _ := NewEstimator(100)
		for i := 0; i < 100000; i++ {
			e.Observe(dist.Sample(r))
		}
		plan, err := p.Replan(e, 20000) // λ ≈ 5
		if err != nil {
			t.Fatal(err)
		}
		return plan
	}
	hot := planFor(1.4)
	flat := planFor(0.2)
	if math.Abs(hot.Theta-1.4) > 0.1 || math.Abs(flat.Theta-0.2) > 0.1 {
		t.Fatalf("theta estimates: %g, %g", hot.Theta, flat.Theta)
	}
	if hot.Cutoff > flat.Cutoff {
		t.Fatalf("hot-skew cutoff %d above flat-skew cutoff %d", hot.Cutoff, flat.Cutoff)
	}
	if len(hot.Ranking) != 100 {
		t.Fatalf("ranking size %d", len(hot.Ranking))
	}
}

func TestReplanErrors(t *testing.T) {
	cat := catalog.MustGenerate(catalog.PaperConfig(0.6, 1))
	p := plannerFor(t, cat)
	e, _ := NewEstimator(100)
	if _, err := p.Replan(e, 100); err == nil {
		t.Fatal("empty window accepted")
	}
	bad := p
	bad.Classes = nil
	if _, err := bad.Replan(e, 100); err == nil {
		t.Fatal("nil classes accepted")
	}
	short := p
	short.Lengths = short.Lengths[:50]
	if _, err := short.Replan(e, 100); err == nil {
		t.Fatal("length mismatch accepted")
	}
}
