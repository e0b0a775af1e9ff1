package catalog

import (
	"math"
	"testing"
	"testing/quick"

	"hybridqos/internal/rng"
)

func paperCat(t *testing.T) *Catalog {
	t.Helper()
	c, err := Generate(PaperConfig(0.6, 42))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{D: 0, Theta: 1, MinLen: 1, MaxLen: 5},
		{D: 10, Theta: -1, MinLen: 1, MaxLen: 5},
		{D: 10, Theta: math.NaN(), MinLen: 1, MaxLen: 5},
		{D: 10, Theta: 1, MinLen: 0, MaxLen: 5},
		{D: 10, Theta: 1, MinLen: 5, MaxLen: 4},
		{D: math.MaxInt32 + 1, Theta: 1, MinLen: 1, MaxLen: 5}, // ranks beyond trace.Event.RunnerUp's int32
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: Validate() passed for invalid config %+v", i, cfg)
		}
	}
	if err := PaperConfig(0.6, 1).Validate(); err != nil {
		t.Errorf("PaperConfig invalid: %v", err)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := MustGenerate(PaperConfig(0.6, 7))
	b := MustGenerate(PaperConfig(0.6, 7))
	for rank := 1; rank <= a.D(); rank++ {
		if a.Length(rank) != b.Length(rank) {
			t.Fatalf("rank %d: lengths differ across equal seeds: %g vs %g", rank, a.Length(rank), b.Length(rank))
		}
	}
	c := MustGenerate(PaperConfig(0.6, 8))
	diff := 0
	for rank := 1; rank <= a.D(); rank++ {
		if a.Length(rank) != c.Length(rank) {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("different seeds produced identical catalogs")
	}
}

func TestPaperConfigShape(t *testing.T) {
	c := paperCat(t)
	if c.D() != 100 {
		t.Fatalf("D = %d, want 100", c.D())
	}
	for rank := 1; rank <= 100; rank++ {
		l := c.Length(rank)
		if l < 1 || l > 5 || l != math.Trunc(l) {
			t.Fatalf("rank %d: length %g not an integer in [1,5]", rank, l)
		}
	}
	// PaperConfig's length PMF has mean 2; allow sampling noise on 100 draws.
	if m := c.PushCycleLength(c.D()) / float64(c.D()); m < 1.5 || m > 2.6 {
		t.Fatalf("mean length %g implausible for the paper's mean-2 PMF", m)
	}
}

func TestPaperLengthWeightsMeanTwo(t *testing.T) {
	w := PaperLengthWeights()
	sum, mean := 0.0, 0.0
	for i, p := range w {
		sum += p
		mean += p * float64(i+1)
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("weights sum to %g", sum)
	}
	if math.Abs(mean-2) > 1e-12 {
		t.Fatalf("weighted mean length = %g, want 2 (assumption 3)", mean)
	}
}

func TestLengthWeightsValidation(t *testing.T) {
	base := Config{D: 10, Theta: 1, MinLen: 1, MaxLen: 3, Seed: 1}
	bad := [][]float64{
		{0.5, 0.5},             // wrong arity
		{0.5, 0.5, -0.1},       // negative
		{0, 0, 0},              // zero mass
		{math.NaN(), 0.5, 0.5}, // NaN
	}
	for i, w := range bad {
		cfg := base
		cfg.LengthWeights = w
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: bad length weights validated", i)
		}
	}
	cfg := base
	cfg.LengthWeights = []float64{1, 1, 2} // unnormalised is fine
	if err := cfg.Validate(); err != nil {
		t.Errorf("unnormalised weights rejected: %v", err)
	}
}

func TestWeightedLengthsEmpirical(t *testing.T) {
	cfg := Config{D: 5000, Theta: 0.5, MinLen: 1, MaxLen: 2, LengthWeights: []float64{0.9, 0.1}, Seed: 3}
	c := MustGenerate(cfg)
	ones := 0
	for rank := 1; rank <= c.D(); rank++ {
		if c.Length(rank) == 1 {
			ones++
		}
	}
	if ones < 4300 || ones > 4700 {
		t.Fatalf("90%%-weight length drawn %d/5000 times", ones)
	}
}

func TestProbsDescendAndSum(t *testing.T) {
	c := paperCat(t)
	sum := 0.0
	for rank := 1; rank <= c.D(); rank++ {
		if rank > 1 && c.Prob(rank) > c.Prob(rank-1) {
			t.Fatalf("probability increased at rank %d", rank)
		}
		sum += c.Prob(rank)
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("probabilities sum to %g", sum)
	}
}

func TestPushPullMassComplement(t *testing.T) {
	c := paperCat(t)
	for k := 0; k <= c.D(); k++ {
		if math.Abs(c.PushMass(k)+c.PullMass(k)-1) > 1e-9 {
			t.Fatalf("k=%d: PushMass+PullMass = %g", k, c.PushMass(k)+c.PullMass(k))
		}
	}
	if c.PushMass(0) != 0 || c.PullMass(c.D()) != 0 {
		t.Fatal("boundary masses wrong")
	}
}

func TestWeightedLengthsPartitionTotal(t *testing.T) {
	c := paperCat(t)
	total := c.WeightedPushLength(c.D())
	for k := 0; k <= c.D(); k++ {
		got := c.WeightedPushLength(k) + c.WeightedPullLength(k)
		if math.Abs(got-total) > 1e-9 {
			t.Fatalf("k=%d: weighted push+pull = %g, want %g", k, got, total)
		}
	}
}

func TestPushCycleLengthMonotone(t *testing.T) {
	c := paperCat(t)
	prev := 0.0
	for k := 1; k <= c.D(); k++ {
		cur := c.PushCycleLength(k)
		inc := cur - prev
		if inc != c.Length(k) {
			t.Fatalf("k=%d: cycle grew by %g, want item length %g", k, inc, c.Length(k))
		}
		prev = cur
	}
}

func TestMeanPullServiceTimeBounds(t *testing.T) {
	c := paperCat(t)
	for k := 0; k < c.D(); k++ {
		m := c.MeanPullServiceTime(k)
		if m < 1 || m > 5 {
			t.Fatalf("k=%d: mean pull service time %g outside item length range", k, m)
		}
	}
	if got := c.MeanPullServiceTime(c.D()); got != 0 {
		t.Fatalf("empty pull set mean service time = %g, want 0", got)
	}
}

func TestSampleRankMatchesProb(t *testing.T) {
	c := MustGenerate(Config{D: 10, Theta: 1.0, MinLen: 1, MaxLen: 5, Seed: 3})
	r := rng.New(11)
	const draws = 300000
	counts := make([]int, 11)
	for i := 0; i < draws; i++ {
		counts[c.SampleRank(r)]++
	}
	for rank := 1; rank <= 10; rank++ {
		want := c.Prob(rank) * draws
		if math.Abs(float64(counts[rank])-want) > 5*math.Sqrt(want)+10 {
			t.Errorf("rank %d sampled %d, want ~%.0f", rank, counts[rank], want)
		}
	}
}

func TestFromLengths(t *testing.T) {
	c, err := FromLengths([]float64{2, 4, 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if c.D() != 3 || c.Length(2) != 4 {
		t.Fatalf("FromLengths mis-built: D=%d L2=%g", c.D(), c.Length(2))
	}
	for _, bad := range [][]float64{nil, {1, 0}, {1, -2}, {math.NaN()}, {math.Inf(1)}} {
		if _, err := FromLengths(bad, 1); err == nil {
			t.Errorf("FromLengths(%v) succeeded, want error", bad)
		}
	}
}

func TestItemAccessorPanics(t *testing.T) {
	c := paperCat(t)
	for _, rank := range []int{0, -1, 101} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Item(%d) did not panic", rank)
				}
			}()
			c.Item(rank)
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("PushMass(101) did not panic")
			}
		}()
		c.PushMass(101)
	}()
}

// Property: for any valid cutoff the mass and weighted-length identities hold
// on randomly generated catalogs.
func TestPropertyCutoffIdentities(t *testing.T) {
	check := func(dRaw, thetaRaw, seedRaw uint8) bool {
		d := int(dRaw%150) + 1
		theta := float64(thetaRaw%140) / 100
		c, err := Generate(Config{D: d, Theta: theta, MinLen: 1, MaxLen: 5, Seed: uint64(seedRaw)})
		if err != nil {
			return false
		}
		for k := 0; k <= d; k++ {
			if math.Abs(c.PushMass(k)+c.PullMass(k)-1) > 1e-9 {
				return false
			}
			if c.PushCycleLength(k) < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
