package stats

import (
	"math"
	"testing"
	"testing/quick"

	"hybridqos/internal/rng"
)

func TestWelfordEmpty(t *testing.T) {
	var w Welford
	if !math.IsNaN(w.Mean()) || !math.IsNaN(w.variance()) || !math.IsNaN(w.Min()) || !math.IsNaN(w.Max()) {
		t.Fatal("empty Welford should report NaN moments")
	}
	if w.N() != 0 {
		t.Fatalf("N = %d", w.N())
	}
}

func TestWelfordKnownValues(t *testing.T) {
	var w Welford
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		w.Add(x)
	}
	if w.N() != 8 {
		t.Fatalf("N = %d", w.N())
	}
	if math.Abs(w.Mean()-5) > 1e-12 {
		t.Fatalf("Mean = %g, want 5", w.Mean())
	}
	// Sample variance of that classic set is 32/7.
	if math.Abs(w.variance()-32.0/7) > 1e-12 {
		t.Fatalf("Variance = %g, want %g", w.variance(), 32.0/7)
	}
	if w.Min() != 2 || w.Max() != 9 {
		t.Fatalf("Min/Max = %g/%g", w.Min(), w.Max())
	}
}

func TestWelfordSingleObservation(t *testing.T) {
	var w Welford
	w.Add(3.5)
	if w.Mean() != 3.5 || !math.IsNaN(w.variance()) {
		t.Fatalf("single obs: mean %g var %g", w.Mean(), w.variance())
	}
	_, hw := w.CI95()
	if !math.IsNaN(hw) {
		t.Fatalf("CI half-width with one obs = %g, want NaN", hw)
	}
}

func TestWelfordMergeEqualsSequential(t *testing.T) {
	r := rng.New(5)
	var all, a, b Welford
	for i := 0; i < 1000; i++ {
		x := r.Float64()*10 - 5
		all.Add(x)
		if i%2 == 0 {
			a.Add(x)
		} else {
			b.Add(x)
		}
	}
	a.Merge(&b)
	if a.N() != all.N() {
		t.Fatalf("merged N = %d, want %d", a.N(), all.N())
	}
	if math.Abs(a.Mean()-all.Mean()) > 1e-10 {
		t.Fatalf("merged mean %g, want %g", a.Mean(), all.Mean())
	}
	if math.Abs(a.variance()-all.variance()) > 1e-10 {
		t.Fatalf("merged variance %g, want %g", a.variance(), all.variance())
	}
	if a.Min() != all.Min() || a.Max() != all.Max() {
		t.Fatal("merged min/max wrong")
	}
}

func TestWelfordMergeEmptyCases(t *testing.T) {
	var a, b Welford
	a.Add(1)
	a.Add(3)
	before := a.Mean()
	a.Merge(&b) // merging empty is a no-op
	if a.Mean() != before || a.N() != 2 {
		t.Fatal("merge with empty changed state")
	}
	var c Welford
	c.Merge(&a) // merging into empty copies
	if c.Mean() != a.Mean() || c.N() != a.N() {
		t.Fatal("merge into empty did not copy")
	}
}

func TestCI95CoversTrueMean(t *testing.T) {
	// 200 experiments, each estimating the mean of U(0,1) from 50 samples;
	// the 95% CI should cover 0.5 roughly 95% of the time.
	r := rng.New(77)
	covered := 0
	const experiments = 200
	for e := 0; e < experiments; e++ {
		var w Welford
		for i := 0; i < 50; i++ {
			w.Add(r.Float64())
		}
		mean, hw := w.CI95()
		if math.Abs(mean-0.5) <= hw {
			covered++
		}
	}
	if covered < 175 || covered > 200 {
		t.Fatalf("CI covered true mean in %d/%d experiments, want ~190", covered, experiments)
	}
}

func TestTCritical(t *testing.T) {
	if got := tCritical95(1); got != 12.706 {
		t.Fatalf("t(1) = %g", got)
	}
	if got := tCritical95(30); got != 2.042 {
		t.Fatalf("t(30) = %g", got)
	}
	if got := tCritical95(1000); got != 1.96 {
		t.Fatalf("t(1000) = %g", got)
	}
	if !math.IsNaN(tCritical95(0)) {
		t.Fatal("t(0) should be NaN")
	}
}

func TestTimeWeightedBasic(t *testing.T) {
	var tw TimeWeighted
	if !math.IsNaN(tw.Mean()) || !math.IsNaN(tw.Max()) {
		t.Fatal("empty TimeWeighted should be NaN")
	}
	tw.Observe(0, 2)  // value 2 on [0,10)
	tw.Observe(10, 4) // value 4 on [10,20)
	tw.Observe(20, 0)
	// mean = (2*10 + 4*10) / 20 = 3
	if math.Abs(tw.Mean()-3) > 1e-12 {
		t.Fatalf("Mean = %g, want 3", tw.Mean())
	}
	if tw.Max() != 4 {
		t.Fatalf("Max = %g", tw.Max())
	}
	if tw.elapsed != 20 {
		t.Fatalf("elapsed = %g", tw.elapsed)
	}
}

func TestTimeWeightedMeanAt(t *testing.T) {
	var tw TimeWeighted
	tw.Observe(0, 1)
	// Hold value 1 until t=5: mean over [0,5] is 1.
	if got := tw.MeanAt(5); math.Abs(got-1) > 1e-12 {
		t.Fatalf("MeanAt(5) = %g", got)
	}
}

func TestTimeWeightedBackwardsTimeClamped(t *testing.T) {
	var tw TimeWeighted
	tw.Observe(0, 2)
	tw.Observe(10, 4)
	// Backwards and NaN times are clamped to t=10: zero area is added, the
	// new value takes effect, and the clock stays at 10.
	tw.Observe(9, 6)
	tw.Observe(math.NaN(), 8)
	if got := tw.MeanAt(20); math.Abs(got-(2*10+8*10)/20.0) > 1e-12 {
		t.Fatalf("mean after clamped observations = %g, want 5", got)
	}
}

func TestTimeWeightedZeroDurationSteps(t *testing.T) {
	var tw TimeWeighted
	tw.Observe(1, 10)
	tw.Observe(1, 20) // same instant: previous value contributes 0 area
	tw.Observe(2, 20)
	if math.Abs(tw.Mean()-20) > 1e-12 {
		t.Fatalf("Mean = %g, want 20", tw.Mean())
	}
}

func TestHistogramPercentiles(t *testing.T) {
	var h Histogram
	if !math.IsNaN(h.Percentile(50)) || !math.IsNaN(h.Mean()) {
		t.Fatal("empty histogram should be NaN")
	}
	for i := 1; i <= 100; i++ {
		h.Add(float64(i))
	}
	if h.N() != 100 {
		t.Fatalf("N = %d", h.N())
	}
	if got := h.Percentile(0); got != 1 {
		t.Fatalf("P0 = %g", got)
	}
	if got := h.Percentile(100); got != 100 {
		t.Fatalf("P100 = %g", got)
	}
	if got := h.Percentile(50); math.Abs(got-50.5) > 1e-9 {
		t.Fatalf("P50 = %g, want 50.5", got)
	}
	if got := h.Mean(); math.Abs(got-50.5) > 1e-9 {
		t.Fatalf("Mean = %g", got)
	}
}

func TestHistogramSingleSample(t *testing.T) {
	var h Histogram
	h.Add(7)
	for _, p := range []float64{0, 50, 100} {
		if got := h.Percentile(p); got != 7 {
			t.Fatalf("P%g = %g", p, got)
		}
	}
}

func TestHistogramAddAfterQueryStaysSorted(t *testing.T) {
	var h Histogram
	h.Add(3)
	h.Add(1)
	_ = h.Percentile(50)
	h.Add(2)
	if got := h.Percentile(50); got != 2 {
		t.Fatalf("P50 after interleaved add = %g, want 2", got)
	}
}

func TestHistogramPercentilePanics(t *testing.T) {
	var h Histogram
	h.Add(1)
	for _, p := range []float64{-1, 101, math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Percentile(%g) did not panic", p)
				}
			}()
			h.Percentile(p)
		}()
	}
}

// Property: Welford mean/variance match the two-pass formulas on arbitrary
// inputs.
func TestPropertyWelfordMatchesTwoPass(t *testing.T) {
	check := func(raw []int16) bool {
		if len(raw) < 2 || len(raw) > 200 {
			return true
		}
		var w Welford
		sum := 0.0
		for _, v := range raw {
			x := float64(v) / 16
			w.Add(x)
			sum += x
		}
		mean := sum / float64(len(raw))
		ss := 0.0
		for _, v := range raw {
			x := float64(v) / 16
			ss += (x - mean) * (x - mean)
		}
		variance := ss / float64(len(raw)-1)
		return math.Abs(w.Mean()-mean) < 1e-9 && math.Abs(w.variance()-variance) < 1e-6
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: percentiles are monotone in p and bounded by min/max.
func TestPropertyPercentileMonotone(t *testing.T) {
	r := rng.New(31)
	check := func(nRaw uint8) bool {
		n := int(nRaw%100) + 1
		var h Histogram
		lo, hi := math.Inf(1), math.Inf(-1)
		for i := 0; i < n; i++ {
			x := r.Float64() * 100
			h.Add(x)
			lo = math.Min(lo, x)
			hi = math.Max(hi, x)
		}
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 5 {
			v := h.Percentile(p)
			if v < prev-1e-12 || v < lo-1e-12 || v > hi+1e-12 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramMerge(t *testing.T) {
	var a, b Histogram
	for i := 1; i <= 5; i++ {
		a.Add(float64(i))
	}
	for i := 6; i <= 10; i++ {
		b.Add(float64(i))
	}
	_ = a.Percentile(50) // force sorted state, Merge must invalidate it
	a.Merge(&b)
	if a.N() != 10 {
		t.Fatalf("merged N = %d", a.N())
	}
	if got := a.Percentile(100); got != 10 {
		t.Fatalf("merged P100 = %g", got)
	}
	a.Merge(nil) // no-op
	a.Merge(&Histogram{})
	if a.N() != 10 {
		t.Fatal("empty merges changed N")
	}
}

func TestHistogramBoundedCapsRetention(t *testing.T) {
	var h Histogram
	h.SetBound(64)
	for i := 0; i < 100000; i++ {
		h.Add(float64(i))
	}
	if h.N() != 100000 {
		t.Fatalf("N = %d, want true count 100000", h.N())
	}
	if len(h.samples) >= 64 {
		t.Fatalf("retained %d samples, bound 64", len(h.samples))
	}
	if len(h.samples) < 32 {
		t.Fatalf("retained %d samples, want at least bound/2", len(h.samples))
	}
	if h.bound != 64 {
		t.Fatalf("bound = %d", h.bound)
	}
}

func TestHistogramBoundedPercentileAccuracy(t *testing.T) {
	// Uniform stream 0..N-1: every percentile is known exactly. The
	// systematic reservoir must estimate within a few stride-widths.
	var h Histogram
	h.SetBound(256)
	const n = 50000
	for i := 0; i < n; i++ {
		h.Add(float64(i))
	}
	for _, p := range []float64{5, 25, 50, 75, 95} {
		want := p / 100 * (n - 1)
		got := h.Percentile(p)
		if math.Abs(got-want)/n > 0.02 {
			t.Fatalf("P%g = %g, want ~%g (err %.2f%% of range)", p, got, want, 100*math.Abs(got-want)/n)
		}
	}
}

func TestHistogramBoundedDeterministic(t *testing.T) {
	run := func() []float64 {
		var h Histogram
		h.SetBound(128)
		for i := 0; i < 10000; i++ {
			h.Add(float64((i * 7919) % 10007))
		}
		return []float64{h.Percentile(50), h.Percentile(95), h.Percentile(99)}
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("percentile %d differs across identical streams: %x vs %x", i, a[i], b[i])
		}
	}
}

func TestHistogramBoundedMergeKeepsTrueN(t *testing.T) {
	var a, b Histogram
	a.SetBound(32)
	b.SetBound(32)
	for i := 0; i < 1000; i++ {
		a.Add(float64(i))
		b.Add(float64(1000 + i))
	}
	a.Merge(&b)
	if a.N() != 2000 {
		t.Fatalf("merged N = %d, want 2000", a.N())
	}
	if len(a.samples) >= 32 {
		t.Fatalf("merged retained %d, bound 32", len(a.samples))
	}
	// An unbounded pool merging bounded parts keeps the true count too.
	var pool Histogram
	pool.Merge(&a)
	if pool.N() != 2000 {
		t.Fatalf("pooled N = %d, want 2000", pool.N())
	}
}

func TestHistogramSetBoundPanics(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("bound 1 accepted")
			}
		}()
		var h Histogram
		h.SetBound(1)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("SetBound on non-empty histogram accepted")
			}
		}()
		var h Histogram
		h.Add(1)
		h.SetBound(8)
	}()
}

func TestHistogramUnboundedUnchanged(t *testing.T) {
	// Exact mode must keep every sample: N == len(samples), percentiles exact.
	var h Histogram
	for i := 0; i < 1000; i++ {
		h.Add(float64(i))
	}
	if h.N() != 1000 || len(h.samples) != 1000 {
		t.Fatalf("N %d retained %d", h.N(), len(h.samples))
	}
	if got := h.Percentile(50); got != 499.5 {
		t.Fatalf("P50 = %g", got)
	}
}
