package markov

import (
	"math"
	"testing"
	"testing/quick"
)

// mm1c builds an M/M/1/C queue chain: states 0..c, birth rate lambda,
// death rate mu.
func mm1c(lambda, mu float64, c int) *Chain {
	ch := NewChain(c + 1)
	for i := 0; i < c; i++ {
		ch.AddRate(i, i+1, lambda)
		ch.AddRate(i+1, i, mu)
	}
	return ch
}

// mm1cExact returns the textbook stationary distribution of M/M/1/C.
func mm1cExact(lambda, mu float64, c int) []float64 {
	rho := lambda / mu
	pi := make([]float64, c+1)
	sum := 0.0
	for i := 0; i <= c; i++ {
		pi[i] = math.Pow(rho, float64(i))
		sum += pi[i]
	}
	for i := range pi {
		pi[i] /= sum
	}
	return pi
}

func TestNewChainPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewChain(0) did not panic")
		}
	}()
	NewChain(0)
}

func TestAddRatePanics(t *testing.T) {
	ch := NewChain(3)
	cases := []func(){
		func() { ch.AddRate(-1, 0, 1) },
		func() { ch.AddRate(0, 3, 1) },
		func() { ch.AddRate(0, 1, -1) },
		func() { ch.AddRate(0, 1, math.NaN()) },
		func() { ch.AddRate(0, 1, math.Inf(1)) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			f()
		}()
	}
}

func TestSelfLoopIgnored(t *testing.T) {
	ch := NewChain(2)
	ch.AddRate(0, 0, 100)
	ch.AddRate(0, 1, 1)
	ch.AddRate(1, 0, 1)
	pi, err := ch.StationaryDense()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pi[0]-0.5) > 1e-12 {
		t.Fatalf("self-loop distorted stationary: %v", pi)
	}
}

func TestTwoStateChain(t *testing.T) {
	// 0 -(a)-> 1, 1 -(b)-> 0: pi = (b, a)/(a+b).
	a, b := 2.0, 3.0
	ch := NewChain(2)
	ch.AddRate(0, 1, a)
	ch.AddRate(1, 0, b)
	for name, solve := range map[string]func() ([]float64, error){
		"dense": ch.StationaryDense,
		"power": func() ([]float64, error) { return ch.StationaryPower(1e-13, 1e6) },
	} {
		pi, err := solve()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if math.Abs(pi[0]-b/(a+b)) > 1e-9 || math.Abs(pi[1]-a/(a+b)) > 1e-9 {
			t.Fatalf("%s: pi = %v", name, pi)
		}
	}
}

func TestMM1CAgainstClosedForm(t *testing.T) {
	for _, tc := range []struct {
		lambda, mu float64
		c          int
	}{
		{1, 2, 10}, {3, 4, 20}, {0.5, 1, 5}, {2, 2, 8}, // includes rho=1
	} {
		ch := mm1c(tc.lambda, tc.mu, tc.c)
		want := mm1cExact(tc.lambda, tc.mu, tc.c)
		pi, err := ch.StationaryDense()
		if err != nil {
			t.Fatalf("lambda=%g: %v", tc.lambda, err)
		}
		for i := range want {
			if math.Abs(pi[i]-want[i]) > 1e-9 {
				t.Fatalf("lambda=%g mu=%g C=%d state %d: pi=%g want %g", tc.lambda, tc.mu, tc.c, i, pi[i], want[i])
			}
		}
	}
}

func TestPowerMatchesDense(t *testing.T) {
	ch := mm1c(2, 3, 30)
	dense, err := ch.StationaryDense()
	if err != nil {
		t.Fatal(err)
	}
	power, err := ch.StationaryPower(1e-13, 5_000_000)
	if err != nil {
		t.Fatal(err)
	}
	for i := range dense {
		if math.Abs(dense[i]-power[i]) > 1e-7 {
			t.Fatalf("state %d: dense %g vs power %g", i, dense[i], power[i])
		}
	}
}

func TestStationaryAutoSelect(t *testing.T) {
	pi, err := mm1c(1, 2, 10).Stationary()
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, p := range pi {
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("auto-selected solution sums to %g", sum)
	}
}

func TestReducibleChainErrors(t *testing.T) {
	// Two disconnected components: stationary distribution is not unique.
	ch := NewChain(4)
	ch.AddRate(0, 1, 1)
	ch.AddRate(1, 0, 1)
	ch.AddRate(2, 3, 1)
	ch.AddRate(3, 2, 1)
	if _, err := ch.StationaryDense(); err == nil {
		t.Fatal("reducible chain solved without error")
	}
}

func TestEmptyChainPowerErrors(t *testing.T) {
	ch := NewChain(3)
	if _, err := ch.StationaryPower(1e-10, 1000); err == nil {
		t.Fatal("transition-free chain converged")
	}
}

func TestPowerBadArgs(t *testing.T) {
	ch := mm1c(1, 2, 3)
	if _, err := ch.StationaryPower(0, 100); err == nil {
		t.Fatal("tol=0 accepted")
	}
	if _, err := ch.StationaryPower(1e-10, 0); err == nil {
		t.Fatal("maxIter=0 accepted")
	}
}

func TestMM1CExpectedQueueLength(t *testing.T) {
	// For M/M/1/C with rho<1 and large C, E[N] approaches rho/(1-rho).
	lambda, mu := 1.0, 2.0
	pi, err := mm1c(lambda, mu, 200).StationaryDense()
	if err != nil {
		t.Fatal(err)
	}
	got := 0.0
	for s, p := range pi {
		got += p * float64(s)
	}
	want := 0.5 / (1 - 0.5)
	if math.Abs(got-want) > 1e-6 {
		t.Fatalf("E[N] = %g, want ~%g", got, want)
	}
}

// Property: for random irreducible birth-death chains both solvers agree and
// produce a valid distribution satisfying detailed balance.
func TestPropertyBirthDeathDetailedBalance(t *testing.T) {
	check := func(lamRaw, muRaw, cRaw uint8) bool {
		lambda := float64(lamRaw%50)/10 + 0.1
		mu := float64(muRaw%50)/10 + 0.1
		c := int(cRaw%20) + 2
		ch := mm1c(lambda, mu, c)
		pi, err := ch.StationaryDense()
		if err != nil {
			return false
		}
		sum := 0.0
		for i := 0; i <= c; i++ {
			if pi[i] < -1e-12 {
				return false
			}
			sum += pi[i]
		}
		if math.Abs(sum-1) > 1e-9 {
			return false
		}
		// Detailed balance: pi[i]·λ = pi[i+1]·μ.
		for i := 0; i < c; i++ {
			if math.Abs(pi[i]*lambda-pi[i+1]*mu) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkDenseSolve200(b *testing.B) {
	ch := mm1c(2, 3, 199)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ch.StationaryDense(); err != nil {
			b.Fatal(err)
		}
	}
}
