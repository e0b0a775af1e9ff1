package clients

import (
	"math"
	"testing"
	"testing/quick"

	"hybridqos/internal/rng"
)

func TestClassString(t *testing.T) {
	cases := map[Class]string{
		0:  "Class-A",
		1:  "Class-B",
		2:  "Class-C",
		25: "Class-Z",
		26: "Class-26",
		-1: "Class(-1)",
	}
	for c, want := range cases {
		if got := c.String(); got != want {
			t.Errorf("Class(%d).String() = %q, want %q", int(c), got, want)
		}
	}
}

func TestNewErrors(t *testing.T) {
	bad := []Config{
		{},
		{Weights: []float64{0}},
		{Weights: []float64{-1}},
		{Weights: []float64{math.NaN()}},
		{Weights: []float64{3, 3, 1}}, // not strictly decreasing
		{Weights: []float64{1, 2, 3}}, // increasing: class 0 must dominate
		{Weights: []float64{3, 2, 1}, PopulationSkew: -1},
		{Weights: []float64{3, 2, 1}, PopulationSkew: math.Inf(1)},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: New(%+v) succeeded, want error", i, cfg)
		}
	}
}

func TestPaperConfig(t *testing.T) {
	cl := Must(PaperConfig())
	if cl.NumClasses() != 3 {
		t.Fatalf("NumClasses = %d", cl.NumClasses())
	}
	if cl.Weight(0) != 3 || cl.Weight(1) != 2 || cl.Weight(2) != 1 {
		t.Fatalf("weights = %v, want 3,2,1", cl.Weights())
	}
	if cl.MaxWeight() != 3 {
		t.Fatalf("MaxWeight = %g", cl.MaxWeight())
	}
	// Assumption 6: fewest Class-A, most Class-C.
	if !(cl.Prob(0) < cl.Prob(1) && cl.Prob(1) < cl.Prob(2)) {
		t.Fatalf("class probabilities not increasing A<B<C: %v", cl.Probs())
	}
	sum := 0.0
	for c := 0; c < 3; c++ {
		sum += cl.Prob(Class(c))
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("class probabilities sum to %g", sum)
	}
}

func TestZeroSkewUniformSplit(t *testing.T) {
	cl := Must(Config{Weights: []float64{3, 2, 1}, PopulationSkew: 0})
	for c := 0; c < 3; c++ {
		if math.Abs(cl.Prob(Class(c))-1.0/3) > 1e-12 {
			t.Fatalf("class %d prob %g, want 1/3", c, cl.Prob(Class(c)))
		}
	}
}

func TestPaperSplitExactValues(t *testing.T) {
	// Skew 1, three classes: masses proportional to 1/3, 1/2, 1 for A, B, C.
	cl := Must(PaperConfig())
	den := 1.0/3 + 1.0/2 + 1.0
	want := []float64{(1.0 / 3) / den, (1.0 / 2) / den, 1.0 / den}
	for c, w := range want {
		if math.Abs(cl.Prob(Class(c))-w) > 1e-12 {
			t.Errorf("class %d prob %g, want %g", c, cl.Prob(Class(c)), w)
		}
	}
}

func TestSampleClassDistribution(t *testing.T) {
	cl := Must(PaperConfig())
	r := rng.New(9)
	const draws = 300000
	counts := make([]int, 3)
	for i := 0; i < draws; i++ {
		counts[cl.SampleClass(r)]++
	}
	for c := 0; c < 3; c++ {
		want := cl.Prob(Class(c)) * draws
		if math.Abs(float64(counts[c])-want) > 5*math.Sqrt(want) {
			t.Errorf("class %d sampled %d, want ~%.0f", c, counts[c], want)
		}
	}
}

func TestAccessorPanics(t *testing.T) {
	cl := Must(PaperConfig())
	for _, c := range []Class{-1, 3} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Weight(%d) did not panic", int(c))
				}
			}()
			cl.Weight(c)
		}()
	}
}

func TestCopiesAreCopies(t *testing.T) {
	cl := Must(PaperConfig())
	w := cl.Weights()
	w[0] = 99
	if cl.Weight(0) == 99 {
		t.Fatal("Weights() exposed internal state")
	}
	p := cl.Probs()
	p[0] = 99
	if cl.Prob(0) == 99 {
		t.Fatal("Probs() exposed internal state")
	}
}

// Property: for any class count 1..8 and skew 0..2, the class probabilities
// are a valid non-decreasing distribution (lowest class always has the most
// mass) and weights remain strictly decreasing.
func TestPropertyClassification(t *testing.T) {
	check := func(nRaw, skewRaw uint8) bool {
		n := int(nRaw%8) + 1
		skew := float64(skewRaw%200) / 100
		weights := make([]float64, n)
		for i := range weights {
			weights[i] = float64(n - i) // n, n-1, ..., 1
		}
		cl, err := New(Config{Weights: weights, PopulationSkew: skew})
		if err != nil {
			return false
		}
		sum := 0.0
		for c := 0; c < n; c++ {
			p := cl.Prob(Class(c))
			if p <= 0 {
				return false
			}
			if c > 0 && p < cl.Prob(Class(c-1))-1e-15 {
				return false // mass must not decrease toward lower classes
			}
			sum += p
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
