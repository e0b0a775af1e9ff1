package airindex

import (
	"math"
	"testing"

	"hybridqos/internal/catalog"
)

func cfg(t *testing.T, k, m int, indexLen float64) Config {
	t.Helper()
	cat, err := catalog.Generate(catalog.PaperConfig(0.6, 42))
	if err != nil {
		t.Fatal(err)
	}
	return Config{Catalog: cat, Cutoff: k, IndexLen: indexLen, M: m}
}

func TestValidate(t *testing.T) {
	good := cfg(t, 40, 4, 0.5)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []func(*Config){
		func(c *Config) { c.Catalog = nil },
		func(c *Config) { c.Cutoff = 0 },
		func(c *Config) { c.Cutoff = 101 },
		func(c *Config) { c.IndexLen = 0 },
		func(c *Config) { c.IndexLen = math.NaN() },
		func(c *Config) { c.M = 0 },
		func(c *Config) { c.M = c.Cutoff + 1 },
	}
	for i, mutate := range bad {
		c := cfg(t, 40, 4, 0.5)
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestAnalyzeBasicIdentities(t *testing.T) {
	c := cfg(t, 40, 4, 0.5)
	m, err := Analyze(c)
	if err != nil {
		t.Fatal(err)
	}
	// (1, m) closed form on the indexed cycle: data plus m index segments.
	cycle := c.Catalog.PushCycleLength(40) + 4*0.5
	meanItem := c.Catalog.WeightedPushLength(40) / c.Catalog.PushMass(40)
	if want := cycle/(2*4) + 0.5 + cycle/2 + meanItem; math.Abs(m.AccessTime-want) > 1e-12*want {
		t.Fatalf("access %g, want %g from cycle %g", m.AccessTime, want, cycle)
	}
	if m.TuningTime >= m.AccessTime {
		t.Fatalf("tuning %g not below access %g", m.TuningTime, m.AccessTime)
	}
	if m.DozeFraction <= 0 || m.DozeFraction >= 1 {
		t.Fatalf("doze fraction %g", m.DozeFraction)
	}
}

func TestAccessTimeUShapedTuningConstant(t *testing.T) {
	c := cfg(t, 40, 1, 0.5)
	sweep, err := Sweep(c, 40)
	if err != nil {
		t.Fatal(err)
	}
	// U-shape: the minimum is interior, with access falling from m=1 to
	// the optimum and rising toward m=K.
	minIdx := 0
	for i, m := range sweep {
		if m.AccessTime < sweep[minIdx].AccessTime {
			minIdx = i
		}
	}
	if minIdx == 0 || minIdx == len(sweep)-1 {
		t.Fatalf("access-time optimum at boundary m=%d", minIdx+1)
	}
	if sweep[0].AccessTime <= sweep[minIdx].AccessTime {
		t.Fatal("m=1 not worse than optimum")
	}
	if sweep[len(sweep)-1].AccessTime <= sweep[minIdx].AccessTime {
		t.Fatal("m=K not worse than optimum")
	}
	// Tuning time is constant in m under the index-first protocol.
	for i := 1; i < len(sweep); i++ {
		if math.Abs(sweep[i].TuningTime-sweep[0].TuningTime) > 1e-12 {
			t.Fatalf("tuning time changed with m: %g vs %g",
				sweep[i].TuningTime, sweep[0].TuningTime)
		}
	}
}

func TestOptimalMMatchesClassicRule(t *testing.T) {
	c := cfg(t, 40, 1, 0.5)
	mStar, metrics, err := OptimalM(c)
	if err != nil {
		t.Fatal(err)
	}
	data := c.Catalog.PushCycleLength(40)
	want := math.Sqrt(data / 0.5)
	if math.Abs(float64(mStar)-want) > 2 {
		t.Fatalf("m* = %d, classic rule gives %.1f", mStar, want)
	}
	// The optimum must beat its neighbours on the discrete grid.
	for _, m := range []int{mStar - 1, mStar + 1} {
		if m < 1 || m > c.Cutoff {
			continue
		}
		cc := c
		cc.M = m
		got, err := Analyze(cc)
		if err != nil {
			t.Fatal(err)
		}
		if got.AccessTime < metrics.AccessTime {
			t.Fatalf("m=%d beats reported optimum m*=%d", m, mStar)
		}
	}
}

func TestOptimalMClamps(t *testing.T) {
	// Huge index length: m*=1.
	c := cfg(t, 40, 1, 1e6)
	mStar, _, err := OptimalM(c)
	if err != nil {
		t.Fatal(err)
	}
	if mStar != 1 {
		t.Fatalf("m* = %d with enormous index, want 1", mStar)
	}
	// Tiny index length: clamped at K.
	c2 := cfg(t, 10, 1, 1e-6)
	mStar2, _, err := OptimalM(c2)
	if err != nil {
		t.Fatal(err)
	}
	if mStar2 != 10 {
		t.Fatalf("m* = %d with tiny index, want clamp at K=10", mStar2)
	}
}

func TestDozeFractionHighAtOptimum(t *testing.T) {
	// The point of air indexing: at the optimal m the client dozes through
	// the vast majority of its wait.
	c := cfg(t, 40, 1, 0.5)
	_, metrics, err := OptimalM(c)
	if err != nil {
		t.Fatal(err)
	}
	if metrics.DozeFraction < 0.7 {
		t.Fatalf("doze fraction at m* only %g", metrics.DozeFraction)
	}
}

func TestSweepErrors(t *testing.T) {
	c := cfg(t, 40, 1, 0.5)
	if _, err := Sweep(c, 0); err == nil {
		t.Fatal("mMax 0 accepted")
	}
	// mMax beyond K clamps rather than errors.
	out, err := Sweep(c, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 40 {
		t.Fatalf("%d sweep points, want clamp at K=40", len(out))
	}
}
