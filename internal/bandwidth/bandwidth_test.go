package bandwidth

import (
	"math"
	"testing"
	"testing/quick"

	"hybridqos/internal/clients"
	"hybridqos/internal/rng"
)

func clientsClass(c int) clients.Class { return clients.Class(c) }

func alloc(t *testing.T, cfg Config) *Allocator {
	t.Helper()
	a, err := New(cfg, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{Total: 0, Fractions: []float64{1}},
		{Total: -1, Fractions: []float64{1}},
		{Total: math.NaN(), Fractions: []float64{1}},
		{Total: 10},
		{Total: 10, Fractions: []float64{0.5, 0.6}},
		{Total: 10, Fractions: []float64{0.5, -0.5, 1.0}},
		{Total: 10, Fractions: []float64{1}, DemandMean: -1},
		{Total: 10, Fractions: []float64{1}, DemandMean: math.Inf(1)},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: invalid config validated: %+v", i, cfg)
		}
	}
	if err := PaperConfig().Validate(); err != nil {
		t.Errorf("PaperConfig invalid: %v", err)
	}
}

func TestNewErrors(t *testing.T) {
	if _, err := New(PaperConfig(), nil); err == nil {
		t.Fatal("nil rng accepted")
	}
	if _, err := New(Config{}, rng.New(1)); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestCapacityPartition(t *testing.T) {
	a := alloc(t, PaperConfig())
	if a.NumClasses() != 3 {
		t.Fatalf("NumClasses = %d", a.NumClasses())
	}
	if a.Capacity(0) != 15 || a.Capacity(1) != 9 || a.Capacity(2) != 6 {
		t.Fatalf("capacities = %g,%g,%g", a.Capacity(0), a.Capacity(1), a.Capacity(2))
	}
	if a.TotalAvailable() != 30 {
		t.Fatalf("TotalAvailable = %g", a.TotalAvailable())
	}
}

func TestDemandDistribution(t *testing.T) {
	a := alloc(t, Config{Total: 100, Fractions: []float64{1}, DemandMean: 2})
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		d := a.Demand(3)
		if d < 1 {
			t.Fatalf("demand %g < 1", d)
		}
		sum += d
	}
	// mean = 1 + 2*3 = 7
	if got := sum / n; math.Abs(got-7) > 0.1 {
		t.Fatalf("mean demand %g, want ~7", got)
	}
}

func TestDemandZeroMeanIsDeterministic(t *testing.T) {
	a := alloc(t, Config{Total: 10, Fractions: []float64{1}, DemandMean: 0})
	for i := 0; i < 10; i++ {
		if d := a.Demand(5); d != 1 {
			t.Fatalf("zero-mean demand = %g, want 1", d)
		}
	}
}

func TestDemandPanicsOnBadLength(t *testing.T) {
	a := alloc(t, PaperConfig())
	defer func() {
		if recover() == nil {
			t.Fatal("Demand(0) did not panic")
		}
	}()
	a.Demand(0)
}

func TestReserveAndRelease(t *testing.T) {
	a := alloc(t, Config{Total: 100, Fractions: []float64{0.5, 0.5}, DemandMean: 0})
	g, blocked := a.Reserve(0, 2) // demand = 1
	if blocked || g == nil {
		t.Fatal("reserve blocked with abundant bandwidth")
	}
	if g.Amount() != 1 || g.Class() != 0 {
		t.Fatalf("grant = %+v", g)
	}
	if a.Available(0) != 49 {
		t.Fatalf("available after reserve = %g", a.Available(0))
	}
	a.Release(g)
	if a.Available(0) != 50 {
		t.Fatalf("available after release = %g", a.Available(0))
	}
	st := a.Stats(0)
	if st.Attempts != 1 || st.Blocked != 0 || st.UnitsGranted != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestBlockingWhenPoolExhausted(t *testing.T) {
	// Pool of 2 units for class 0, deterministic demand 1 per reserve.
	a := alloc(t, Config{Total: 4, Fractions: []float64{0.5, 0.5}, DemandMean: 0})
	var grants []*Grant
	for i := 0; i < 2; i++ {
		g, blocked := a.Reserve(0, 1)
		if blocked {
			t.Fatalf("reserve %d blocked early", i)
		}
		grants = append(grants, g)
	}
	if _, blocked := a.Reserve(0, 1); !blocked {
		t.Fatal("third reserve should block: pool exhausted")
	}
	st := a.Stats(0)
	if st.Attempts != 3 || st.Blocked != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if got := st.BlockingRate(); math.Abs(got-1.0/3) > 1e-12 {
		t.Fatalf("BlockingRate = %g", got)
	}
	// Class 1's pool is unaffected by class 0's exhaustion.
	if _, blocked := a.Reserve(1, 1); blocked {
		t.Fatal("class 1 blocked by class 0 exhaustion under strict partitioning")
	}
	for _, g := range grants {
		a.Release(g)
	}
	if a.Available(0) != 2 {
		t.Fatalf("class 0 pool not restored: %g", a.Available(0))
	}
}

func TestBorrowMode(t *testing.T) {
	// Class 0 pool is 1 unit; demand 2 forces borrowing from class 1.
	cfg := Config{Total: 4, Fractions: []float64{0.25, 0.75}, DemandMean: 0, AllowBorrow: true}
	a := alloc(t, cfg)
	// Drain class 0 with one demand-1 grant, then demand another: must borrow.
	g1, blocked := a.Reserve(0, 1)
	if blocked {
		t.Fatal("first reserve blocked")
	}
	g2, blocked := a.Reserve(0, 1)
	if blocked {
		t.Fatal("borrowing reserve blocked despite free lower-priority bandwidth")
	}
	if a.Available(1) != 2 {
		t.Fatalf("class 1 pool after borrow = %g, want 2", a.Available(1))
	}
	a.Release(g2)
	a.Release(g1)
	if a.Available(0) != 1 || a.Available(1) != 3 {
		t.Fatalf("pools after release = %g,%g", a.Available(0), a.Available(1))
	}
}

func TestBorrowNeverTakesFromHigherClass(t *testing.T) {
	cfg := Config{Total: 4, Fractions: []float64{0.75, 0.25}, DemandMean: 0, AllowBorrow: true}
	a := alloc(t, cfg)
	// Exhaust class 1 (capacity 1), then demand more: the only free
	// bandwidth is class 0's, which class 1 must NOT touch.
	if _, blocked := a.Reserve(1, 1); blocked {
		t.Fatal("first class-1 reserve blocked")
	}
	if _, blocked := a.Reserve(1, 1); !blocked {
		t.Fatal("class 1 borrowed from the higher-priority class-0 pool")
	}
	if a.Available(0) != 3 {
		t.Fatalf("class 0 pool touched: %g", a.Available(0))
	}
}

func TestReleasePanics(t *testing.T) {
	a := alloc(t, PaperConfig())
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Release(nil) did not panic")
			}
		}()
		a.Release(nil)
	}()
	g, _ := a.Reserve(0, 1)
	a.Release(g)
	defer func() {
		if recover() == nil {
			t.Error("double Release did not panic")
		}
	}()
	a.Release(g)
}

func TestClassCheckPanics(t *testing.T) {
	a := alloc(t, PaperConfig())
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range class did not panic")
		}
	}()
	a.Reserve(3, 1)
}

func TestBlockingRateZeroAttempts(t *testing.T) {
	if got := (ClassStats{}).BlockingRate(); got != 0 {
		t.Fatalf("BlockingRate with 0 attempts = %g", got)
	}
}

func TestLargerFractionLowersBlocking(t *testing.T) {
	// The abstract's claim: giving the premium class a bigger share drops
	// its blocking. Stochastic demand, heavy usage without release.
	run := func(frac0 float64) float64 {
		cfg := Config{Total: 20, Fractions: []float64{frac0, 1 - frac0}, DemandMean: 1}
		a := Must(cfg, rng.New(42))
		var live []*Grant
		for i := 0; i < 5000; i++ {
			g, blocked := a.Reserve(0, 2)
			if !blocked {
				live = append(live, g)
			}
			// Release oldest half periodically to keep pressure on.
			if len(live) > 3 {
				a.Release(live[0])
				live = live[1:]
			}
		}
		return a.Stats(0).BlockingRate()
	}
	small, large := run(0.2), run(0.8)
	if large >= small {
		t.Fatalf("blocking with 80%% share (%g) not lower than with 20%% share (%g)", large, small)
	}
}

// Property: conservation — available never exceeds capacity, never negative,
// and reserve/release round-trips restore the total exactly.
func TestPropertyConservation(t *testing.T) {
	check := func(seed uint16, ops []uint8) bool {
		cfg := Config{Total: 30, Fractions: []float64{0.5, 0.3, 0.2}, DemandMean: 1}
		a := Must(cfg, rng.New(uint64(seed)))
		var live []*Grant
		for _, op := range ops {
			c := int(op % 3)
			if op%2 == 0 || len(live) == 0 {
				g, blocked := a.Reserve(clientsClass(c), float64(op%4)+1)
				if !blocked {
					live = append(live, g)
				}
			} else {
				a.Release(live[len(live)-1])
				live = live[:len(live)-1]
			}
			for cl := 0; cl < 3; cl++ {
				av := a.Available(clientsClass(cl))
				if av < -1e-9 || av > a.Capacity(clientsClass(cl))+1e-9 {
					return false
				}
			}
		}
		for _, g := range live {
			a.Release(g)
		}
		return math.Abs(a.TotalAvailable()-30) < 1e-9
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkReserveRelease(b *testing.B) {
	a := Must(PaperConfig(), rng.New(1))
	for i := 0; i < b.N; i++ {
		g, blocked := a.Reserve(0, 2)
		if !blocked {
			a.Release(g)
		}
	}
}
