package bandwidth

import (
	"fmt"
	"math"
	"reflect"
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
	if total := a.Available(0) + a.Available(1) + a.Available(2); total != 30 {
		t.Fatalf("total available = %g", total)
	}
}

func TestDemandDistribution(t *testing.T) {
	a := alloc(t, Config{Total: 100, Fractions: []float64{1}, DemandMean: 2})
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		d := a.demand(3)
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
		if d := a.demand(5); d != 1 {
			t.Fatalf("zero-mean demand = %g, want 1", d)
		}
	}
}

func TestDemandPanicsOnBadLength(t *testing.T) {
	a := alloc(t, PaperConfig())
	defer func() {
		if recover() == nil {
			t.Fatal("demand(0) did not panic")
		}
	}()
	a.demand(0)
}

func TestReserveAndRelease(t *testing.T) {
	a := alloc(t, Config{Total: 100, Fractions: []float64{0.5, 0.5}, DemandMean: 0})
	var g Grant
	if a.Reserve(0, 2, &g) { // demand = 1
		t.Fatal("reserve blocked with abundant bandwidth")
	}
	if g.Class() != 0 {
		t.Fatalf("grant = %+v", g)
	}
	if a.Available(0) != 49 {
		t.Fatalf("available after reserve = %g", a.Available(0))
	}
	a.Release(&g)
	if a.Available(0) != 50 {
		t.Fatalf("available after release = %g", a.Available(0))
	}
	st := a.Stats(0)
	if st.Attempts != 1 || st.Blocked != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestBlockingWhenPoolExhausted(t *testing.T) {
	// Pool of 2 units for class 0, deterministic demand 1 per reserve.
	a := alloc(t, Config{Total: 4, Fractions: []float64{0.5, 0.5}, DemandMean: 0})
	grants := make([]Grant, 3)
	for i := 0; i < 2; i++ {
		if a.Reserve(0, 1, &grants[i]) {
			t.Fatalf("reserve %d blocked early", i)
		}
	}
	if !a.Reserve(0, 1, &grants[2]) {
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
	if a.Reserve(1, 1, new(Grant)) {
		t.Fatal("class 1 blocked by class 0 exhaustion under strict partitioning")
	}
	for i := range grants[:2] {
		a.Release(&grants[i])
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
	var g1, g2 Grant
	if a.Reserve(0, 1, &g1) {
		t.Fatal("first reserve blocked")
	}
	if a.Reserve(0, 1, &g2) {
		t.Fatal("borrowing reserve blocked despite free lower-priority bandwidth")
	}
	if a.Available(1) != 2 {
		t.Fatalf("class 1 pool after borrow = %g, want 2", a.Available(1))
	}
	a.Release(&g2)
	a.Release(&g1)
	if a.Available(0) != 1 || a.Available(1) != 3 {
		t.Fatalf("pools after release = %g,%g", a.Available(0), a.Available(1))
	}
}

func TestBorrowNeverTakesFromHigherClass(t *testing.T) {
	cfg := Config{Total: 4, Fractions: []float64{0.75, 0.25}, DemandMean: 0, AllowBorrow: true}
	a := alloc(t, cfg)
	// Exhaust class 1 (capacity 1), then demand more: the only free
	// bandwidth is class 0's, which class 1 must NOT touch.
	if a.Reserve(1, 1, new(Grant)) {
		t.Fatal("first class-1 reserve blocked")
	}
	if !a.Reserve(1, 1, new(Grant)) {
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
	g := new(Grant)
	a.Reserve(0, 1, g)
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
	a.Reserve(3, 1, new(Grant))
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
			g := new(Grant)
			if !a.Reserve(0, 2, g) {
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
				g := new(Grant)
				if !a.Reserve(clientsClass(c), float64(op%4)+1, g) {
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
		total := a.Available(0) + a.Available(1) + a.Available(2)
		return math.Abs(total-30) < 1e-9
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestReleaseEmptyGrantPanics: a grant Reserve never filled — a zero
// Grant, or one whose reservation blocked — holds nothing to return.
func TestReleaseEmptyGrantPanics(t *testing.T) {
	a := alloc(t, Config{Total: 2, Fractions: []float64{0.5, 0.5}, DemandMean: 0})
	var held, blocked Grant
	a.Reserve(0, 1, &held)
	if !a.Reserve(0, 1, &blocked) {
		t.Fatal("second reserve should block: pool exhausted")
	}
	for _, g := range []*Grant{{}, &blocked} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("releasing an empty grant (%+v) did not panic", *g)
				}
			}()
			a.Release(g)
		}()
	}
}

// TestReserveIntoHeldGrantPanics: refilling a grant before releasing it
// would leak the bandwidth it holds.
func TestReserveIntoHeldGrantPanics(t *testing.T) {
	a := alloc(t, PaperConfig())
	var g Grant
	a.Reserve(0, 1, &g)
	defer func() {
		if recover() == nil {
			t.Fatal("reserving into a held grant did not panic")
		}
	}()
	a.Reserve(0, 1, &g)
}

// borrowReference is the borrowing reservation as first written, with an
// explicit list of the pools to visit: own pool first, then every
// lower-priority pool with bandwidth free, lowest priority first, until
// the list covers the demand. It returns the takes, or blocked.
func borrowReference(avail []float64, c int, demand float64) ([]poolTake, bool) {
	if avail[c] >= demand {
		return []poolTake{{c, demand}}, false
	}
	free := avail[c]
	order := []int{c}
	for p := len(avail) - 1; p > c && free < demand; p-- {
		if avail[p] > 0 {
			free += avail[p]
			order = append(order, p)
		}
	}
	if free < demand {
		return nil, true
	}
	var takes []poolTake
	remaining := demand
	for _, p := range order {
		if remaining <= 0 {
			break
		}
		if take := math.Min(avail[p], remaining); take > 0 {
			takes = append(takes, poolTake{p, take})
			remaining -= take
		}
	}
	return takes, false
}

// TestBorrowMatchesReference drives a borrowing allocator through random
// reserve/release sequences and checks every reservation against
// borrowReference, bit for bit, on a shadow copy of the demand stream.
func TestBorrowMatchesReference(t *testing.T) {
	check := func(seed uint16, ops []uint8) bool {
		cfg := Config{Total: 17.3, Fractions: []float64{0.4, 0.1, 0.3, 0.2}, DemandMean: 1.3, AllowBorrow: true}
		a := Must(cfg, rng.New(uint64(seed)))
		shadow := rng.New(uint64(seed))
		var live []*Grant
		for _, op := range ops {
			if op%3 == 2 && len(live) > 0 {
				k := int(op) % len(live)
				a.Release(live[k])
				live = append(live[:k], live[k+1:]...)
				continue
			}
			c, length := int(op%4), float64(op%5)+0.5
			avail := append([]float64(nil), a.available...)
			want, wantBlocked := borrowReference(avail, c, 1+float64(shadow.Poisson(cfg.DemandMean*length)))
			g := new(Grant)
			if blocked := a.Reserve(clientsClass(c), length, g); blocked != wantBlocked {
				return false
			}
			if wantBlocked {
				continue
			}
			if len(g.takes) != len(want) {
				return false
			}
			for i := range want {
				if g.takes[i] != want[i] {
					return false
				}
			}
			live = append(live, g)
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestBorrowStopsAtScannedPools: when rounding leaves a sliver of the
// demand uncovered by the pools the scan counted (0.7 + 0.3 sums to 1, but
// 1 − 0.7 − 0.3 is 5.6e-17), the grant stops there, as borrowReference's
// visit list does, and leaves the higher-priority pool 1 untouched.
func TestBorrowStopsAtScannedPools(t *testing.T) {
	a := alloc(t, Config{Total: 30, Fractions: []float64{0.2, 0.3, 0.5}, DemandMean: 0, AllowBorrow: true})
	avail := []float64{0.7, 5, 0.3}
	copy(a.available, avail)
	want, _ := borrowReference(avail, 0, 1)
	var g Grant
	if a.Reserve(0, 1, &g) {
		t.Fatal("reserve blocked with enough bandwidth across pools 0 and 2")
	}
	if !reflect.DeepEqual(g.takes, want) {
		t.Fatalf("takes %v, want %v", g.takes, want)
	}
	if a.Available(1) != 5 {
		t.Fatalf("pool 1 left with %g, want 5", a.Available(1))
	}
}

// TestReserveReleaseAllocationFree: once a grant has been filled, reusing
// it costs no heap allocation on either the strict or the borrowing path.
func TestReserveReleaseAllocationFree(t *testing.T) {
	for _, borrow := range []bool{false, true} {
		cfg := PaperConfig()
		cfg.AllowBorrow = borrow
		a := Must(cfg, rng.New(1))
		var g Grant
		allocs := testing.AllocsPerRun(1000, func() {
			if !a.Reserve(1, 2, &g) {
				a.Release(&g)
			}
		})
		if allocs != 0 {
			t.Errorf("borrow=%v: %g allocations per Reserve/Release, want 0", borrow, allocs)
		}
	}
}

// BenchmarkReserveRelease times one reservation and its release through a
// reused grant, as the engine makes them: 0 allocs/op. borrow=true holds
// most of the Class-B pool so that most Class-B reservations borrow.
func BenchmarkReserveRelease(b *testing.B) {
	for _, borrow := range []bool{false, true} {
		b.Run(fmt.Sprintf("borrow=%v", borrow), func(b *testing.B) {
			cfg := PaperConfig()
			cfg.AllowBorrow = borrow
			a := Must(cfg, rng.New(1))
			if borrow {
				for i := 0; i < 3; i++ {
					a.Reserve(1, 0.5, new(Grant))
				}
			}
			var g Grant
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if !a.Reserve(1, 2, &g) {
					a.Release(&g)
				}
			}
		})
	}
}
