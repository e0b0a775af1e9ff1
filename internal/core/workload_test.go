package core

import (
	"math"
	"testing"

	"hybridqos/internal/workload"
)

func TestBurstyArrivalsRaiseDelay(t *testing.T) {
	// Same mean rate, bursty vs Poisson: burstiness must not reduce the
	// measured delay (queueing theory: variability hurts).
	base := baseConfig(t)
	base.Horizon = 20000
	poisson, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	bursty := base
	mm, err := workload.Bursty(base.Lambda, 3, 0.005)
	if err != nil {
		t.Fatal(err)
	}
	bursty.Arrivals = mm
	burstyM, err := Run(bursty)
	if err != nil {
		t.Fatal(err)
	}
	if burstyM.OverallMeanDelay() < poisson.OverallMeanDelay()*0.95 {
		t.Fatalf("bursty delay %g below Poisson %g",
			burstyM.OverallMeanDelay(), poisson.OverallMeanDelay())
	}
}

func TestBatchArrivalsPreserveThroughput(t *testing.T) {
	// Batch arrivals with the same total rate: total served should be in
	// the same ballpark (multicast absorbs the batches).
	base := baseConfig(t)
	base.Horizon = 10000
	plain, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	batched := base
	bp, err := workload.NewBatchPoisson(base.Lambda/3, 3)
	if err != nil {
		t.Fatal(err)
	}
	batched.Arrivals = bp
	batchM, err := Run(batched)
	if err != nil {
		t.Fatal(err)
	}
	served := func(m *Metrics) int64 {
		var n int64
		for _, cm := range m.PerClass {
			n += cm.Served
		}
		return n
	}
	a, b := served(plain), served(batchM)
	if math.Abs(float64(a-b))/float64(a) > 0.15 {
		t.Fatalf("served counts diverge: plain %d vs batched %d", a, b)
	}
}

func TestRotatingPopularityHurtsStaticPushSet(t *testing.T) {
	// When the hot set rotates away from the static push set, delays must
	// rise: the broadcast serves cold items while hot ones queue.
	base := baseConfig(t)
	base.Horizon = 20000
	static, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	rotating := base
	rot, err := workload.NewRotatingPopularity(base.Catalog, 2000, 25)
	if err != nil {
		t.Fatal(err)
	}
	rotating.Items = rot
	rotM, err := Run(rotating)
	if err != nil {
		t.Fatal(err)
	}
	if rotM.OverallMeanDelay() <= static.OverallMeanDelay() {
		t.Fatalf("rotating popularity delay %g not above static %g",
			rotM.OverallMeanDelay(), static.OverallMeanDelay())
	}
}

func TestRequestTTLExpiry(t *testing.T) {
	base := baseConfig(t)
	base.Horizon = 10000
	base.RequestTTL = 30 // tighter than the typical delay: expiries expected
	m, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	var expired, served int64
	for _, cm := range m.PerClass {
		expired += cm.Expired
		served += cm.Served
		// All recorded delays respect the deadline.
		if cm.Delay.N() > 0 && cm.Delay.Max() > base.RequestTTL {
			t.Fatalf("class %v recorded delay %g beyond TTL %g",
				cm.Class, cm.Delay.Max(), base.RequestTTL)
		}
	}
	if expired == 0 {
		t.Fatal("tight TTL produced no expiries")
	}
	if served == 0 {
		t.Fatal("tight TTL served nothing at all")
	}
}

func TestNoTTLNoExpiry(t *testing.T) {
	m, err := Run(baseConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, cm := range m.PerClass {
		if cm.Expired != 0 {
			t.Fatalf("expiries without TTL: %d", cm.Expired)
		}
	}
}

func TestNegativeTTLRejected(t *testing.T) {
	cfg := baseConfig(t)
	cfg.RequestTTL = -1
	if err := cfg.Validate(); err == nil {
		t.Fatal("negative TTL accepted")
	}
}

func TestCustomArrivalsDeterministic(t *testing.T) {
	mk := func() *Metrics {
		cfg := baseConfig(t)
		mm, err := workload.Bursty(cfg.Lambda, 2, 0.01)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Arrivals = mm
		m, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	a, b := mk(), mk()
	if a.OverallMeanDelay() != b.OverallMeanDelay() {
		t.Fatal("bursty runs with equal seeds differ")
	}
}
