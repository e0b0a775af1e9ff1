package rng

import (
	"math"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if got, want := a.Uint64(), b.Uint64(); got != want {
			t.Fatalf("step %d: sources with equal seeds diverged: %d != %d", i, got, want)
		}
	}
}

func TestDifferentSeedsDiverge(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 1 {
		t.Fatalf("sources with different seeds produced %d/100 equal outputs", same)
	}
}

func TestReseedRestartsStream(t *testing.T) {
	r := New(7)
	first := make([]uint64, 10)
	for i := range first {
		first[i] = r.Uint64()
	}
	r.Reseed(7)
	for i := range first {
		if got := r.Uint64(); got != first[i] {
			t.Fatalf("step %d after Reseed: got %d want %d", i, got, first[i])
		}
	}
}

func TestZeroSeedNotDegenerate(t *testing.T) {
	r := New(0)
	zeros := 0
	for i := 0; i < 100; i++ {
		if r.Uint64() == 0 {
			zeros++
		}
	}
	if zeros > 1 {
		t.Fatalf("seed 0 produced %d zero outputs of 100", zeros)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(99)
	a := parent.Split("arrivals")
	parent2 := New(99)
	b := parent2.Split("arrivals")
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-name splits from same parent state diverged at step %d", i)
		}
	}
	// Different names give different streams.
	p := New(99)
	c := p.Split("arrivals")
	p2 := New(99)
	d := p2.Split("lengths")
	same := 0
	for i := 0; i < 100; i++ {
		if c.Uint64() == d.Uint64() {
			same++
		}
	}
	if same > 1 {
		t.Fatalf("different-name splits produced %d/100 equal outputs", same)
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 100000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %g", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(5)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("Float64 mean %g, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(11)
	for _, n := range []int{1, 2, 3, 7, 100, 1 << 20} {
		for i := 0; i < 1000; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnUniform(t *testing.T) {
	r := New(13)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want)/want > 0.05 {
			t.Fatalf("Intn(%d): bucket %d has %d draws, want ~%g", n, i, c, want)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntRange(t *testing.T) {
	r := New(17)
	seen := map[int]bool{}
	for i := 0; i < 10000; i++ {
		v := r.IntRange(3, 7)
		if v < 3 || v > 7 {
			t.Fatalf("IntRange(3,7) = %d", v)
		}
		seen[v] = true
	}
	for v := 3; v <= 7; v++ {
		if !seen[v] {
			t.Fatalf("IntRange(3,7) never produced %d in 10000 draws", v)
		}
	}
}

func TestIntRangeSingleton(t *testing.T) {
	r := New(19)
	if v := r.IntRange(5, 5); v != 5 {
		t.Fatalf("IntRange(5,5) = %d", v)
	}
}

func TestExpMeanAndPositivity(t *testing.T) {
	r := New(23)
	for _, rate := range []float64{0.5, 1, 5} {
		const n = 200000
		sum := 0.0
		for i := 0; i < n; i++ {
			x := r.Exp(rate)
			if x < 0 {
				t.Fatalf("Exp(%g) returned negative %g", rate, x)
			}
			sum += x
		}
		mean := sum / n
		want := 1 / rate
		if math.Abs(mean-want)/want > 0.02 {
			t.Fatalf("Exp(%g) mean %g, want ~%g", rate, mean, want)
		}
	}
}

func TestExpPanicsOnBadRate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Exp(0) did not panic")
		}
	}()
	New(1).Exp(0)
}

func TestPoissonMoments(t *testing.T) {
	r := New(29)
	// Covers both the Knuth branch (<30) and the PTRS branch (>=30).
	for _, mean := range []float64{0.3, 2, 12, 29.9, 30, 75, 500} {
		const n = 100000
		var sum, sumSq float64
		for i := 0; i < n; i++ {
			k := float64(r.Poisson(mean))
			sum += k
			sumSq += k * k
		}
		m := sum / n
		v := sumSq/n - m*m
		tol := 4 * math.Sqrt(mean/n) // ~4 sigma on the sample mean
		if math.Abs(m-mean) > tol+0.02 {
			t.Errorf("Poisson(%g): sample mean %g, want within %g", mean, m, tol)
		}
		if math.Abs(v-mean)/mean > 0.06 {
			t.Errorf("Poisson(%g): sample variance %g, want ~%g", mean, v, mean)
		}
	}
}

func TestPoissonZeroMean(t *testing.T) {
	r := New(31)
	for i := 0; i < 100; i++ {
		if k := r.Poisson(0); k != 0 {
			t.Fatalf("Poisson(0) = %d", k)
		}
	}
}

func TestPoissonPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Poisson(-1) did not panic")
		}
	}()
	New(1).Poisson(-1)
}

// TestIntnPinned pins the first 32 Intn draws from one seed. The bounds
// cover a small n, the high word of the 128-bit product (n > 2^32) and
// Lemire's rejection path: n = 2^62+12345 rejects often enough that its 32
// draws consume 49 Uint64s.
func TestIntnPinned(t *testing.T) {
	cases := []struct {
		n     int
		draws int // Uint64 calls the 32 Intn draws consume
		want  []int
	}{
		{n: 3, draws: 32, want: []int{0, 1, 1, 2, 1, 0, 0, 1, 2, 0, 2, 0, 2, 2, 1, 2, 2, 1, 0, 0, 1, 0, 0, 2, 2, 0, 2, 2, 2, 1, 0, 2}},
		{n: 1<<32 + 1, draws: 32, want: []int{1415852570, 2226054762, 1804592243, 3074341865, 1706420142, 108104210, 1014070740, 1709039454, 3668023148, 1208179800, 3632256847, 766317816, 3896134596, 3851955712, 1473332642, 3119108759, 3277687095, 1637771170, 1339340408, 1282106042, 1637520779, 277803544, 379423136, 3306748474, 4229302486, 174006617, 3434203082, 3517920913, 3742074429, 2789261399, 1223166222, 3941798674}},
		{n: 1<<62 + 12345, draws: 49, want: []int{2390208100748672134, 1937666166515363007, 1832254675450604337, 1088850166385097343, 1835067140834293104, 3938509864959870102, 3900106091424774802, 822827490370438189, 4136005951789938450, 3349117527897040324, 1758543402975849714, 1376650880737450753, 1758274548534265190, 3550594137214707136, 4541178965411908177, 186838182511532003, 3777338817079188087, 4018021822376386265, 2994946621851660882, 1313364730740638340, 3214169227420455824, 2345940659579680951, 729254530012139207, 2324087598480796319, 2173565117489163230, 3109103774932580712, 2571344659879883414, 1985881156030162291, 1787779295795181191, 2645845544489512522, 4194774810821523248, 2749418591274439234}},
		{n: math.MaxInt64, draws: 32, want: []int{3040520242544169466, 4780416201497331472, 3875332333030715640, 6602098882514240458, 3664509350901198864, 232152024381944574, 2177700332770188857, 3670134281668576384, 7877019729919719118, 2594546365025579308, 7800212182849528724, 1645654980740871973, 8366885334491358756, 8272011903579854756, 3163957757441234300, 6698235055794062718, 7038779439379472541, 3517086805951690014, 2876211626684209804, 2753301761474894137, 3516549097068520967, 596578570059715225, 814804981954238484, 7101188274429395263, 9082357930823792041, 373676365023063006, 7374894962154910209, 7554677634158355951, 8036043644752751018, 5989893243703305730, 2626729461481269649, 8464948196224352831}},
	}
	for _, c := range cases {
		r := New(2005)
		for i, want := range c.want {
			if got := r.Intn(c.n); got != want {
				t.Fatalf("Intn(%d) draw %d = %d, want %d", c.n, i, got, want)
			}
		}
		ref := New(2005)
		for i := 0; i < c.draws; i++ {
			ref.Uint64()
		}
		if ref.s != r.s {
			t.Fatalf("Intn(%d): 32 draws did not consume exactly %d Uint64s", c.n, c.draws)
		}
	}
}
