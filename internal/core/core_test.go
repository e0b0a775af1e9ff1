package core

import (
	"math"
	"testing"

	"hybridqos/internal/bandwidth"
	"hybridqos/internal/catalog"
	"hybridqos/internal/clients"
	"hybridqos/internal/sched"
)

func baseConfig(t testing.TB) Config {
	t.Helper()
	cat, err := catalog.Generate(catalog.PaperConfig(0.6, 42))
	if err != nil {
		t.Fatal(err)
	}
	cl, err := clients.New(clients.PaperConfig())
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Catalog:        cat,
		Classes:        cl,
		Lambda:         5,
		Cutoff:         40,
		Alpha:          0.5,
		Horizon:        5000,
		WarmupFraction: 0.1,
		Seed:           7,
	}
}

func TestConfigValidate(t *testing.T) {
	good := baseConfig(t)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	mutations := []func(*Config){
		func(c *Config) { c.Catalog = nil },
		func(c *Config) { c.Classes = nil },
		func(c *Config) { c.Lambda = 0 },
		func(c *Config) { c.Lambda = math.NaN() },
		func(c *Config) { c.Cutoff = -1 },
		func(c *Config) { c.Cutoff = 101 },
		func(c *Config) { c.Alpha = -0.5 },
		func(c *Config) { c.Alpha = 2 },
		func(c *Config) { c.Horizon = 0 },
		func(c *Config) { c.WarmupFraction = 1 },
		func(c *Config) { c.WarmupFraction = -0.1 },
		func(c *Config) {
			c.Bandwidth = &bandwidth.Config{Total: 10, Fractions: []float64{0.5, 0.5}, DemandMean: 1}
		}, // wrong class arity
	}
	for i, mutate := range mutations {
		cfg := baseConfig(t)
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	cfg := baseConfig(t)
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.PushBroadcasts != b.PushBroadcasts || a.PullTransmissions != b.PullTransmissions {
		t.Fatalf("transmission counts differ across identical runs: %d/%d vs %d/%d",
			a.PushBroadcasts, a.PullTransmissions, b.PushBroadcasts, b.PullTransmissions)
	}
	for c := range a.PerClass {
		if a.PerClass[c].Served != b.PerClass[c].Served {
			t.Fatalf("class %d served %d vs %d", c, a.PerClass[c].Served, b.PerClass[c].Served)
		}
		if a.PerClass[c].Delay.Mean() != b.PerClass[c].Delay.Mean() {
			t.Fatalf("class %d mean delay differs", c)
		}
	}
}

func TestRunDifferentSeedsDiffer(t *testing.T) {
	cfg := baseConfig(t)
	a, _ := Run(cfg)
	cfg.Seed = 8
	b, _ := Run(cfg)
	if a.PerClass[2].Served == b.PerClass[2].Served && a.PerClass[2].Delay.Mean() == b.PerClass[2].Delay.Mean() {
		t.Fatal("different seeds produced identical metrics")
	}
}

func TestAllRequestsAccounted(t *testing.T) {
	cfg := baseConfig(t)
	m, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for c, cm := range m.PerClass {
		if cm.Served+cm.Dropped > cm.Arrivals {
			t.Fatalf("class %d: served %d + dropped %d exceeds arrivals %d",
				c, cm.Served, cm.Dropped, cm.Arrivals)
		}
		// With no bandwidth constraint nothing may drop.
		if cm.Dropped != 0 {
			t.Fatalf("class %d dropped %d without bandwidth constraints", c, cm.Dropped)
		}
		// The vast majority of post-warmup arrivals should complete within
		// the horizon for this stable configuration.
		if cm.Arrivals > 0 && float64(cm.Served)/float64(cm.Arrivals) < 0.9 {
			t.Fatalf("class %d served only %d of %d arrivals", c, cm.Served, cm.Arrivals)
		}
	}
}

func TestClassDelayOrderingWithPriority(t *testing.T) {
	// α=0.25 (strong priority influence): Class-A must beat B must beat C.
	cfg := baseConfig(t)
	cfg.Alpha = 0.25
	cfg.Horizon = 20000
	m, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a := m.PerClass[0].PullDelay.Mean()
	b := m.PerClass[1].PullDelay.Mean()
	c := m.PerClass[2].PullDelay.Mean()
	if !(a < b && b < c) {
		t.Fatalf("pull delays not ordered A<B<C: %g %g %g", a, b, c)
	}
}

func TestPushDelaysClassIndependent(t *testing.T) {
	// Push delivery ignores class: per-class push delays should be close.
	cfg := baseConfig(t)
	cfg.Horizon = 20000
	m, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a := m.PerClass[0].PushDelay.Mean()
	c := m.PerClass[2].PushDelay.Mean()
	if math.Abs(a-c)/c > 0.15 {
		t.Fatalf("push delays differ by class: %g vs %g", a, c)
	}
	// And should be near half the EFFECTIVE push cycle (the flat rotation
	// stretched by interleaved pull transmissions), measurable from the
	// run's own push-broadcast rate.
	effectiveCycle := float64(cfg.Cutoff) * cfg.Horizon / float64(m.PushBroadcasts)
	half := effectiveCycle / 2
	if m.PerClass[1].PushDelay.Mean() < half*0.8 || m.PerClass[1].PushDelay.Mean() > half*1.3 {
		t.Fatalf("push delay %g implausible for effective half-cycle %g", m.PerClass[1].PushDelay.Mean(), half)
	}
	// The raw flat cycle is a lower bound on the effective cycle.
	if raw := cfg.Catalog.PushCycleLength(cfg.Cutoff); effectiveCycle < raw*0.99 {
		t.Fatalf("effective cycle %g below raw cycle %g", effectiveCycle, raw)
	}
}

func TestPurePushNoPullTransmissions(t *testing.T) {
	cfg := baseConfig(t)
	cfg.Cutoff = cfg.Catalog.D()
	m, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.PullTransmissions != 0 {
		t.Fatalf("pure push run had %d pull transmissions", m.PullTransmissions)
	}
	if m.PushBroadcasts == 0 {
		t.Fatal("no push broadcasts")
	}
	for _, cm := range m.PerClass {
		if cm.PullDelay.N() != 0 {
			t.Fatal("pull delays recorded in pure push mode")
		}
	}
}

func TestPurePullNoPushBroadcasts(t *testing.T) {
	cfg := baseConfig(t)
	cfg.Cutoff = 0
	m, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.PushBroadcasts != 0 {
		t.Fatalf("pure pull run had %d push broadcasts", m.PushBroadcasts)
	}
	if m.PullTransmissions == 0 {
		t.Fatal("no pull transmissions")
	}
	served := int64(0)
	for _, cm := range m.PerClass {
		served += cm.Served
	}
	if served == 0 {
		t.Fatal("pure pull served nothing")
	}
}

func TestBandwidthBlockingDropsRequests(t *testing.T) {
	cfg := baseConfig(t)
	// Tiny bandwidth with high demand: blocking must occur.
	cfg.Bandwidth = &bandwidth.Config{Total: 3, Fractions: []float64{0.34, 0.33, 0.33}, DemandMean: 3}
	m, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.BlockedTransmissions == 0 {
		t.Fatal("no blocking under starved bandwidth")
	}
	var dropped int64
	for _, cm := range m.PerClass {
		dropped += cm.Dropped
	}
	if dropped == 0 {
		t.Fatal("blocking produced no dropped requests")
	}
	if len(m.Bandwidth) != 3 {
		t.Fatalf("bandwidth stats for %d classes", len(m.Bandwidth))
	}
}

func TestGenerousBandwidthNoBlocking(t *testing.T) {
	cfg := baseConfig(t)
	cfg.Bandwidth = &bandwidth.Config{Total: 1000, Fractions: []float64{0.5, 0.3, 0.2}, DemandMean: 1}
	m, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.BlockedTransmissions != 0 {
		t.Fatalf("%d blocked transmissions under generous bandwidth", m.BlockedTransmissions)
	}
}

func TestLargerPremiumShareLowersPremiumDrops(t *testing.T) {
	// Abstract's claim: an appropriate bandwidth fraction keeps premium
	// blocking low.
	run := func(fracA float64) float64 {
		cfg := baseConfig(t)
		rest := (1 - fracA) / 2
		cfg.Bandwidth = &bandwidth.Config{Total: 8, Fractions: []float64{fracA, rest, rest}, DemandMean: 1.5}
		cfg.Horizon = 20000
		m, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return m.PerClass[0].DropRate()
	}
	small, large := run(0.2), run(0.7)
	if large > small {
		t.Fatalf("premium drop rate with 70%% share (%g) above 20%% share (%g)", large, small)
	}
}

func TestQueueMetricsPopulated(t *testing.T) {
	cfg := baseConfig(t)
	m, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(m.QueueItems.Mean()) || m.QueueItems.Mean() < 0 {
		t.Fatalf("queue items mean %g", m.QueueItems.Mean())
	}
	if m.QueueRequests.Mean() < m.QueueItems.Mean() {
		t.Fatalf("pending requests %g below distinct items %g", m.QueueRequests.Mean(), m.QueueItems.Mean())
	}
}

func TestAlternationInvariant(t *testing.T) {
	// With K >= 1, every pull transmission is preceded by a push: pull
	// count can never exceed push count (plus one in flight).
	cfg := baseConfig(t)
	m, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.PullTransmissions > m.PushBroadcasts+1 {
		t.Fatalf("pull transmissions %d exceed push broadcasts %d", m.PullTransmissions, m.PushBroadcasts)
	}
}

func TestOverallMeanDelayAggregation(t *testing.T) {
	cfg := baseConfig(t)
	m, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	var n int64
	for _, cm := range m.PerClass {
		sum += cm.Delay.Mean() * float64(cm.Delay.N())
		n += cm.Delay.N()
	}
	if math.Abs(m.OverallMeanDelay()-sum/float64(n)) > 1e-9 {
		t.Fatal("OverallMeanDelay aggregation wrong")
	}
	var cost float64
	for _, cm := range m.PerClass {
		cost += cm.Cost()
	}
	if math.Abs(m.TotalCost()-cost) > 1e-9 {
		t.Fatal("TotalCost aggregation wrong")
	}
	// An empty run (every class weighted, none served — a multi-channel run
	// returns the same type) has no overall delay and costs nothing.
	empty := &Metrics{PerClass: []*ClassMetrics{{Class: 0, Weight: 3}, {Class: 1, Weight: 1}}}
	if !math.IsNaN(empty.OverallMeanDelay()) {
		t.Fatal("empty run overall delay not NaN")
	}
	if empty.TotalCost() != 0 {
		t.Fatal("empty run total cost not 0")
	}
}

func TestEmptyMetricsNaN(t *testing.T) {
	m := &Metrics{PerClass: []*ClassMetrics{{Class: 0, Weight: 3}}}
	if !math.IsNaN(m.OverallMeanDelay()) {
		t.Fatal("empty metrics overall delay not NaN")
	}
	if m.TotalCost() != 0 {
		t.Fatal("empty metrics cost not 0")
	}
	if m.PerClass[0].DropRate() != 0 {
		t.Fatal("empty drop rate not 0")
	}
}

func TestCustomPullPolicies(t *testing.T) {
	for _, pol := range []sched.PullPolicy{sched.FCFS{}, sched.MRF{}, sched.RxW{}, sched.StretchOptimal{}} {
		cfg := baseConfig(t)
		cfg.PullPolicy = pol
		cfg.Horizon = 2000
		m, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", pol.Name(), err)
		}
		if m.PullTransmissions == 0 {
			t.Fatalf("%s: no pull transmissions", pol.Name())
		}
	}
}

func TestCustomPushScheduler(t *testing.T) {
	cfg := baseConfig(t)
	cfg.PushScheduler = func(cat *catalog.Catalog, k int) (sched.PushScheduler, error) {
		return sched.NewSquareRootRule(cat, k)
	}
	m, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.PushBroadcasts == 0 {
		t.Fatal("custom push scheduler never ran")
	}
}

func TestRetryOnBlockServesMore(t *testing.T) {
	mk := func(retry bool) *Metrics {
		cfg := baseConfig(t)
		cfg.Bandwidth = &bandwidth.Config{Total: 6, Fractions: []float64{0.34, 0.33, 0.33}, DemandMean: 2}
		cfg.RetryOnBlock = retry
		cfg.Horizon = 10000
		m, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	plain, retry := mk(false), mk(true)
	if retry.PullTransmissions < plain.PullTransmissions {
		t.Fatalf("retry-on-block served fewer pull transmissions (%d) than plain (%d)",
			retry.PullTransmissions, plain.PullTransmissions)
	}
}
