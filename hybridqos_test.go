package hybridqos

import (
	"math"
	"strings"
	"testing"
)

func quickConfig() Config {
	c := PaperConfig()
	c.Horizon = 4000
	c.Replications = 2
	return c
}

func TestPaperConfigSimulates(t *testing.T) {
	r, err := Simulate(quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.PerClass) != 3 {
		t.Fatalf("%d classes", len(r.PerClass))
	}
	if r.PerClass[0].Class != "Class-A" || r.PerClass[2].Class != "Class-C" {
		t.Fatalf("class labels: %s, %s", r.PerClass[0].Class, r.PerClass[2].Class)
	}
	if r.OverallDelay <= 0 || math.IsNaN(r.OverallDelay) {
		t.Fatalf("overall delay %g", r.OverallDelay)
	}
	if r.Replications != 2 {
		t.Fatalf("replications %d", r.Replications)
	}
	if r.PushBroadcasts == 0 || r.PullTransmissions == 0 {
		t.Fatal("no transmissions recorded")
	}
}

func TestSimulateDeterministic(t *testing.T) {
	a, err := Simulate(quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if a.OverallDelay != b.OverallDelay || a.TotalCost != b.TotalCost {
		t.Fatal("identical configs produced different results")
	}
}

func TestSimulateClassOrdering(t *testing.T) {
	c := quickConfig()
	c.Alpha = 0.25
	c.Horizon = 12000
	r, err := Simulate(c)
	if err != nil {
		t.Fatal(err)
	}
	if !(r.PerClass[0].MeanDelay < r.PerClass[1].MeanDelay &&
		r.PerClass[1].MeanDelay < r.PerClass[2].MeanDelay) {
		t.Fatalf("delays not ordered: %g %g %g",
			r.PerClass[0].MeanDelay, r.PerClass[1].MeanDelay, r.PerClass[2].MeanDelay)
	}
}

func TestSimulateInvalidConfigs(t *testing.T) {
	mutations := []func(*Config){
		func(c *Config) { c.NumItems = 0 },
		func(c *Config) { c.Lambda = -1 },
		func(c *Config) { c.Alpha = 2 },
		func(c *Config) { c.ClassWeights = nil },
		func(c *Config) { c.ClassWeights = []float64{1, 2, 3} }, // increasing
		func(c *Config) { c.Cutoff = 101 },
		func(c *Config) { c.Horizon = 0 },
		func(c *Config) { c.PullPolicy = "nonsense" },
		func(c *Config) { c.PushScheduler = "nonsense" },
		func(c *Config) {
			c.Bandwidth = &BandwidthConfig{Total: 10, Fractions: []float64{1}, DemandMean: 1}
		}, // class arity mismatch
	}
	for i, mutate := range mutations {
		c := quickConfig()
		mutate(&c)
		if _, err := Simulate(c); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestAllPullPolicies(t *testing.T) {
	for _, p := range []string{PolicyGamma, PolicyImportanceFactor, PolicyStretch,
		PolicyPriority, PolicyFCFS, PolicyEDF, PolicyMRF, PolicyRxW, PolicyClassicStretch} {
		c := quickConfig()
		c.PullPolicy = p
		c.Horizon = 2000
		c.Replications = 1
		if _, err := Simulate(c); err != nil {
			t.Errorf("policy %s: %v", p, err)
		}
	}
}

func TestAllPushSchedulers(t *testing.T) {
	for _, p := range []string{PushRoundRobin, PushFlat, PushBroadcastDisk,
		PushSquareRoot, PushNone} {
		c := quickConfig()
		c.PushScheduler = p
		c.Horizon = 2000
		c.Replications = 1
		r, err := Simulate(c)
		if err != nil {
			t.Errorf("scheduler %s: %v", p, err)
			continue
		}
		if p == PushNone && r.PushBroadcasts != 0 {
			t.Errorf("push=none broadcast %d items", r.PushBroadcasts)
		}
	}
}

func TestPolicyRegistryExposed(t *testing.T) {
	pulls, pushes := PullPolicies(), PushSchedulers()
	for _, want := range []string{PolicyGamma, PolicyStretch, PolicyFCFS, PolicyEDF} {
		if !contains(pulls, want) {
			t.Errorf("PullPolicies() missing %q: %v", want, pulls)
		}
	}
	for _, want := range []string{PushRoundRobin, PushBroadcastDisk, PushNone} {
		if !contains(pushes, want) {
			t.Errorf("PushSchedulers() missing %q: %v", want, pushes)
		}
	}
}

func contains(xs []string, want string) bool {
	for _, x := range xs {
		if x == want {
			return true
		}
	}
	return false
}

func TestBandwidthBlockingExposed(t *testing.T) {
	c := quickConfig()
	c.Bandwidth = &BandwidthConfig{Total: 4, Fractions: []float64{0.4, 0.3, 0.3}, DemandMean: 2}
	r, err := Simulate(c)
	if err != nil {
		t.Fatal(err)
	}
	if r.BlockedTransmissions == 0 {
		t.Fatal("starved bandwidth produced no blocking")
	}
	var dropped int64
	for _, cr := range r.PerClass {
		dropped += cr.Dropped
	}
	if dropped == 0 {
		t.Fatal("no drops recorded")
	}
}

func TestOptimizeCutoff(t *testing.T) {
	c := quickConfig()
	c.Horizon = 2500
	best, err := OptimizeCutoff(c, 20, 80, 30, "cost")
	if err != nil {
		t.Fatal(err)
	}
	if best.Cutoff != 20 && best.Cutoff != 50 && best.Cutoff != 80 {
		t.Fatalf("optimal cutoff %d not on sweep grid", best.Cutoff)
	}
	if _, err := OptimizeCutoff(c, 20, 80, 30, "delay"); err != nil {
		t.Fatal(err)
	}
	if _, err := OptimizeCutoff(c, 20, 80, 30, "nonsense"); err == nil {
		t.Fatal("unknown objective accepted")
	}
	if _, err := OptimizeCutoff(c, 20, 10, 5, "cost"); err == nil {
		t.Fatal("inverted range accepted")
	}
	if _, err := OptimizeCutoff(c, -1, 10, 5, "cost"); err == nil {
		t.Fatal("negative kMin accepted")
	}
	if _, err := OptimizeCutoff(c, 0, 10, 0, "cost"); err == nil {
		t.Fatal("zero step accepted")
	}
	if _, err := OptimizeCutoff(c, c.NumItems+1, c.NumItems+1, 1, "cost"); err == nil {
		t.Fatal("cutoff beyond the catalog accepted")
	}
}

func TestPredictAndSweep(t *testing.T) {
	c := quickConfig()
	p, err := Predict(c)
	if err != nil {
		t.Fatal(err)
	}
	if p.Cutoff != c.Cutoff || len(p.PerClass) != 3 {
		t.Fatalf("prediction shape: %+v", p)
	}
	if p.OverallDelay <= 0 {
		t.Fatalf("predicted delay %g", p.OverallDelay)
	}
	sweep, err := PredictSweep(c, 10, 90)
	if err != nil {
		t.Fatal(err)
	}
	if len(sweep) != 81 {
		t.Fatalf("%d sweep points", len(sweep))
	}
	best, err := PredictOptimalCutoff(c, 10, 90)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range sweep {
		if s.TotalCost < best.TotalCost {
			t.Fatalf("PredictOptimalCutoff missed K=%d", s.Cutoff)
		}
	}
}

func TestPredictionMatchesSimulation(t *testing.T) {
	// The headline Figure-7 property via the public API: analytic within
	// 20% of simulation per class.
	c := PaperConfig()
	c.Alpha = 0.75
	c.Horizon = 15000
	c.Replications = 2
	r, err := Simulate(c)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Predict(c)
	if err != nil {
		t.Fatal(err)
	}
	dev, err := DeviationFromPrediction(r, p)
	if err != nil {
		t.Fatal(err)
	}
	if dev > 0.20 {
		t.Fatalf("model deviates %.1f%% from simulation", dev*100)
	}
}

func TestDeviationErrors(t *testing.T) {
	if _, err := DeviationFromPrediction(nil, nil); err == nil {
		t.Fatal("nil inputs accepted")
	}
	r := &Result{PerClass: make([]ClassResult, 2)}
	p := &Prediction{PerClass: make([]ClassPrediction, 3)}
	if _, err := DeviationFromPrediction(r, p); err == nil {
		t.Fatal("class mismatch accepted")
	}
}

func TestClassLabels(t *testing.T) {
	r, err := Simulate(quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []string{"Class-A", "Class-B", "Class-C"} {
		if r.PerClass[i].Class != want {
			t.Fatalf("class %d label %q", i, r.PerClass[i].Class)
		}
		if !strings.HasPrefix(r.PerClass[i].Class, "Class-") {
			t.Fatalf("unexpected label %q", r.PerClass[i].Class)
		}
	}
}

func TestVersionSet(t *testing.T) {
	if Version == "" {
		t.Fatal("Version empty")
	}
}

func TestP95DelayExposed(t *testing.T) {
	r, err := Simulate(quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range r.PerClass {
		if !(c.P95Delay >= c.MeanDelay) {
			t.Fatalf("%s: P95 %g below mean %g", c.Class, c.P95Delay, c.MeanDelay)
		}
	}
}

func TestDelayHistBound(t *testing.T) {
	exact, err := Simulate(quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	c := quickConfig()
	c.DelayHistBound = 256
	bounded, err := Simulate(c)
	if err != nil {
		t.Fatal(err)
	}
	// The reservoir only changes which samples back the percentile query —
	// means, counts and costs are untouched.
	if bounded.OverallDelay != exact.OverallDelay || bounded.TotalCost != exact.TotalCost {
		t.Fatal("bounded histograms perturbed aggregate results")
	}
	for i := range exact.PerClass {
		eb, bb := exact.PerClass[i], bounded.PerClass[i]
		if eb.Served != bb.Served || eb.MeanDelay != bb.MeanDelay {
			t.Fatalf("class %d aggregates differ under bounded histograms", i)
		}
		if math.IsNaN(bb.P95Delay) || bb.P95Delay <= 0 {
			t.Fatalf("class %d bounded P95 %g", i, bb.P95Delay)
		}
		// The estimate must land near the exact percentile.
		if math.Abs(bb.P95Delay-eb.P95Delay)/eb.P95Delay > 0.25 {
			t.Fatalf("class %d P95 estimate %g too far from exact %g", i, bb.P95Delay, eb.P95Delay)
		}
	}

	c.DelayHistBound = 1
	if _, err := Simulate(c); err == nil {
		t.Fatal("bound 1 accepted")
	}
}

func TestSetWorkersExposed(t *testing.T) {
	prev := SetWorkers(2)
	defer SetWorkers(prev)
	if Workers() != 2 {
		t.Fatalf("Workers() = %d", Workers())
	}
	a, err := Simulate(quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	SetWorkers(1)
	b, err := Simulate(quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if a.OverallDelay != b.OverallDelay {
		t.Fatal("worker count changed results")
	}
}
