package stats

import (
	"math"
	"sort"
	"testing"

	"hybridqos/internal/rng"
)

// TestWelfordMergeBothEmpty pins the degenerate merge: folding one zero-value
// accumulator into another must leave a usable zero value, not a poisoned one.
func TestWelfordMergeBothEmpty(t *testing.T) {
	var a, b Welford
	a.Merge(&b)
	if a.N() != 0 {
		t.Fatalf("empty merge empty: N = %d, want 0", a.N())
	}
	if !math.IsNaN(a.Mean()) || !math.IsNaN(a.variance()) || !math.IsNaN(a.Min()) || !math.IsNaN(a.Max()) {
		t.Fatalf("empty merge empty not NaN-clean: mean %g var %g min %g max %g",
			a.Mean(), a.variance(), a.Min(), a.Max())
	}
	// Still accumulates normally afterwards.
	a.Add(7)
	if a.Mean() != 7 || a.Min() != 7 || a.Max() != 7 {
		t.Fatalf("post-merge Add broken: mean %g min %g max %g", a.Mean(), a.Min(), a.Max())
	}
}

// TestWelfordMergeSingletons checks the n=1 ⊕ n=1 case, where each side has a
// NaN variance but the merged pair must have the exact two-sample variance.
func TestWelfordMergeSingletons(t *testing.T) {
	var a, b Welford
	a.Add(2)
	b.Add(4)
	a.Merge(&b)
	if a.N() != 2 {
		t.Fatalf("N = %d, want 2", a.N())
	}
	if a.Mean() != 3 {
		t.Fatalf("mean = %g, want 3", a.Mean())
	}
	// Unbiased variance of {2, 4} is ((2-3)^2 + (4-3)^2) / 1 = 2, exactly.
	if a.variance() != 2 {
		t.Fatalf("variance = %g, want exactly 2", a.variance())
	}
	if a.Min() != 2 || a.Max() != 4 {
		t.Fatalf("min/max = %g/%g, want 2/4", a.Min(), a.Max())
	}

	// Order must not matter for identical singletons either.
	var c, d Welford
	c.Add(4)
	d.Add(2)
	c.Merge(&d)
	if c.Mean() != a.Mean() || c.variance() != a.variance() {
		t.Fatalf("merge not symmetric: mean %g var %g", c.Mean(), c.variance())
	}
}

// logBounds mirrors the telemetry delay-histogram layout: powers of two from
// 1/16 up to 16384 as inclusive upper bounds (ratio r = 2 between buckets).
func logBounds() []float64 {
	var bounds []float64
	for b := 1.0 / 16; b <= 16384; b *= 2 {
		bounds = append(bounds, b)
	}
	return bounds
}

// TestBucketQuantileErrorBound pins the documented accuracy contract of
// BucketQuantile: with log-scale bounds of ratio r, the bucketed estimate is
// within a factor r of the exact sample percentile (here r = 2). Exercised
// against exponential-ish delays, the distribution shape the simulator's
// access delays actually follow.
func TestBucketQuantileErrorBound(t *testing.T) {
	bounds := logBounds()
	r := rng.New(42)
	var exact Histogram
	counts := make([]int64, len(bounds)+1) // +1 for the overflow bucket
	for i := 0; i < 20000; i++ {
		x := -math.Log(1-r.Float64()) * 8 // Exp(mean 8)
		exact.Add(x)
		b := sort.SearchFloat64s(bounds, x)
		counts[b]++
	}
	for _, p := range []float64{10, 25, 50, 90, 95, 99} {
		est := BucketQuantile(p, bounds, counts)
		want := exact.Percentile(p)
		if math.IsNaN(est) {
			t.Fatalf("p%g: estimate is NaN", p)
		}
		if est < want/2 || est > want*2 {
			t.Errorf("p%g: estimate %g outside factor-2 band of exact %g", p, est, want)
		}
	}
}

// TestBucketQuantileEdgeCases covers the inputs the windowed-timeline path can
// produce: empty windows, invalid p, negative deltas, and ranks landing in the
// overflow bucket.
func TestBucketQuantileEdgeCases(t *testing.T) {
	bounds := []float64{1, 2, 4}
	if v := BucketQuantile(50, bounds, []int64{0, 0, 0}); !math.IsNaN(v) {
		t.Errorf("all-zero counts: got %g, want NaN", v)
	}
	if v := BucketQuantile(50, bounds, nil); !math.IsNaN(v) {
		t.Errorf("nil counts: got %g, want NaN", v)
	}
	if v := BucketQuantile(-1, bounds, []int64{1}); !math.IsNaN(v) {
		t.Errorf("p < 0: got %g, want NaN", v)
	}
	if v := BucketQuantile(101, bounds, []int64{1}); !math.IsNaN(v) {
		t.Errorf("p > 100: got %g, want NaN", v)
	}
	if v := BucketQuantile(math.NaN(), bounds, []int64{1}); !math.IsNaN(v) {
		t.Errorf("p NaN: got %g, want NaN", v)
	}
	if v := BucketQuantile(50, nil, []int64{1}); !math.IsNaN(v) {
		t.Errorf("no bounds: got %g, want NaN", v)
	}
	// Negative counts are treated as zero, not as holes in the CDF.
	if v := BucketQuantile(50, bounds, []int64{-5, 2, 0}); !(v > 1 && v <= 2) {
		t.Errorf("negative count skipped wrongly: got %g, want in (1, 2]", v)
	}
	// Everything in the overflow bucket: the last bound is the best answer.
	if v := BucketQuantile(99, bounds, []int64{0, 0, 0, 10}); v != 4 {
		t.Errorf("overflow bucket: got %g, want 4", v)
	}
	// Single observation in the first bucket interpolates from lower edge 0.
	if v := BucketQuantile(100, bounds, []int64{1, 0, 0}); !(v > 0 && v <= 1) {
		t.Errorf("first bucket: got %g, want in (0, 1]", v)
	}
}
