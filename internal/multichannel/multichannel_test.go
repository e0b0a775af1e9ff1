package multichannel

import (
	"math"
	"testing"

	"hybridqos/internal/catalog"
	"hybridqos/internal/clients"
	"hybridqos/internal/core"
	"hybridqos/internal/sched"
)

func baseConfig(t *testing.T) Config {
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
		PushChannels:   1,
		PullChannels:   1,
		Horizon:        8000,
		WarmupFraction: 0.1,
		Seed:           7,
	}
}

func TestValidate(t *testing.T) {
	good := baseConfig(t)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	mutations := []func(*Config){
		func(c *Config) { c.Catalog = nil },
		func(c *Config) { c.Classes = nil },
		func(c *Config) { c.Lambda = 0 },
		func(c *Config) { c.Cutoff = -1 },
		func(c *Config) { c.Alpha = 2 },
		func(c *Config) { c.PushChannels = 0 },  // cutoff 40 needs push
		func(c *Config) { c.PullChannels = 0 },  // pull set needs pull
		func(c *Config) { c.PushChannels = 41 }, // more channels than items
		func(c *Config) { c.PushChannels, c.PullChannels = -1, 2 },
		func(c *Config) { c.Horizon = 0 },
		func(c *Config) { c.WarmupFraction = 1 },
	}
	for i, mutate := range mutations {
		cfg := baseConfig(t)
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestDeterministic(t *testing.T) {
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
		t.Fatal("identical runs diverged")
	}
	for c := range a.PerClass {
		if a.PerClass[c].Delay.Mean() != b.PerClass[c].Delay.Mean() {
			t.Fatal("per-class delays diverged")
		}
	}
}

// With one push and one pull channel at half rate each, the system should be
// in the same performance regime as the single-channel alternating server
// (each spends half its capacity per subsystem) — not identical, but the
// same order of magnitude and the same class ordering.
func TestOneOneComparableToSingleChannel(t *testing.T) {
	cfg := baseConfig(t)
	cfg.Alpha = 0.25
	cfg.Horizon = 20000
	m, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	single, err := core.Run(core.Config{
		Catalog:        cfg.Catalog,
		Classes:        cfg.Classes,
		Lambda:         cfg.Lambda,
		Cutoff:         cfg.Cutoff,
		Alpha:          cfg.Alpha,
		Horizon:        cfg.Horizon,
		WarmupFraction: cfg.WarmupFraction,
		Seed:           cfg.Seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	ratio := m.OverallMeanDelay() / single.OverallMeanDelay()
	if ratio < 0.4 || ratio > 2.5 {
		t.Fatalf("1+1 channels delay %g vs single-channel %g (ratio %g)",
			m.OverallMeanDelay(), single.OverallMeanDelay(), ratio)
	}
	a, b, c := m.PerClass[0].Delay.Mean(), m.PerClass[1].Delay.Mean(), m.PerClass[2].Delay.Mean()
	if !(a < b && b < c) {
		t.Fatalf("class ordering broken: %g %g %g", a, b, c)
	}
}

func TestAllRequestsServedEventually(t *testing.T) {
	cfg := baseConfig(t)
	m, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for c, cm := range m.PerClass {
		if cm.Served == 0 {
			t.Fatalf("class %d served nothing", c)
		}
		if cm.Served > cm.Arrivals {
			t.Fatalf("class %d served %d > arrivals %d", c, cm.Served, cm.Arrivals)
		}
		if float64(cm.Served)/float64(cm.Arrivals) < 0.85 {
			t.Fatalf("class %d served only %d/%d", c, cm.Served, cm.Arrivals)
		}
	}
}

func TestPurePushMultiChannel(t *testing.T) {
	cfg := baseConfig(t)
	cfg.Cutoff = cfg.Catalog.D()
	cfg.PushChannels = 4
	cfg.PullChannels = 0
	m, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.PullTransmissions != 0 {
		t.Fatal("pure push had pull transmissions")
	}
	if m.PushBroadcasts == 0 {
		t.Fatal("no broadcasts")
	}
}

func TestPurePullMultiChannel(t *testing.T) {
	cfg := baseConfig(t)
	cfg.Cutoff = 0
	cfg.PushChannels = 0
	cfg.PullChannels = 3
	m, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.PushBroadcasts != 0 {
		t.Fatal("pure pull had push broadcasts")
	}
	if m.PullTransmissions == 0 {
		t.Fatal("no pull transmissions")
	}
}

func TestMorePushChannelsShortenPushDelay(t *testing.T) {
	// Fixed 4 channels total; compare push-delay with 1 vs 3 push channels.
	// More push channels shorten each partition's cycle (fewer items per
	// channel), so push waiters catch their item sooner even at reduced
	// per-channel rate: cycle = (K/P)·L̄/rate = K·L̄·(P+pull)/P.
	run := func(pushCh, pullCh int) float64 {
		cfg := baseConfig(t)
		cfg.PushChannels = pushCh
		cfg.PullChannels = pullCh
		cfg.Horizon = 20000
		m, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Pool push delays across classes.
		var sum float64
		var n int64
		for _, cm := range m.PerClass {
			if cm.PushDelay.N() > 0 {
				sum += cm.PushDelay.Mean() * float64(cm.PushDelay.N())
				n += cm.PushDelay.N()
			}
		}
		return sum / float64(n)
	}
	onePush := run(1, 3)
	threePush := run(3, 1)
	if threePush >= onePush {
		t.Fatalf("3 push channels (%g) not faster for push items than 1 (%g)", threePush, onePush)
	}
}

// TestMetricsAggregation: Run fills core.Metrics, so the single-channel
// aggregates (OverallMeanDelay, TotalCost) read a multi-channel run
// unchanged.
func TestMetricsAggregation(t *testing.T) {
	cfg := baseConfig(t)
	m, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.Horizon != cfg.Horizon || len(m.PerClass) != cfg.Classes.NumClasses() {
		t.Fatalf("horizon %g, %d classes; want %g, %d", m.Horizon, len(m.PerClass), cfg.Horizon, cfg.Classes.NumClasses())
	}
	var sum, cost float64
	var n int64
	for c, cm := range m.PerClass {
		if cm.Weight != cfg.Classes.Weight(clients.Class(c)) {
			t.Errorf("class %d weight %g", c, cm.Weight)
		}
		sum += cm.Delay.Mean() * float64(cm.Delay.N())
		n += cm.Delay.N()
		cost += cm.Cost()
	}
	if n == 0 || math.Abs(m.OverallMeanDelay()-sum/float64(n)) > 1e-9 || math.Abs(m.TotalCost()-cost) > 1e-9 {
		t.Fatalf("aggregates %g, %g; want %g, %g", m.OverallMeanDelay(), m.TotalCost(), sum/float64(n), cost)
	}
}

func TestCustomPullPolicy(t *testing.T) {
	cfg := baseConfig(t)
	cfg.PullPolicy = sched.RxW{}
	m, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.PullTransmissions == 0 {
		t.Fatal("RxW policy served nothing")
	}
}

// TestPropertyRandomSplitsInvariants fuzzes channel splits and checks the
// core invariants hold for any of them.
func TestPropertyRandomSplitsInvariants(t *testing.T) {
	base := baseConfig(t)
	base.Horizon = 800
	for seed := uint64(0); seed < 12; seed++ {
		for _, split := range [][2]int{{1, 1}, {1, 3}, {2, 2}, {3, 1}, {4, 4}} {
			cfg := base
			cfg.Seed = seed
			cfg.PushChannels, cfg.PullChannels = split[0], split[1]
			m, err := Run(cfg)
			if err != nil {
				t.Fatalf("seed %d split %v: %v", seed, split, err)
			}
			for c, cm := range m.PerClass {
				if cm.Served > cm.Arrivals {
					t.Fatalf("seed %d split %v class %d: served %d > arrivals %d",
						seed, split, c, cm.Served, cm.Arrivals)
				}
				if cm.Delay.N() > 0 && cm.Delay.Min() < 0 {
					t.Fatalf("negative delay")
				}
			}
		}
	}
}
