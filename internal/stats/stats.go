// Package stats provides the statistics machinery used to reduce simulation
// output: streaming moments (Welford), confidence intervals over independent
// replications, histograms with percentile queries, and time-weighted
// averages for quantities sampled over simulated time (queue lengths,
// bandwidth occupancy).
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Welford accumulates streaming mean and variance in one pass with good
// numerical behaviour. The zero value is ready to use.
type Welford struct {
	n    int64
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add incorporates one observation.
func (w *Welford) Add(x float64) {
	w.n++
	if w.n == 1 {
		w.min, w.max = x, x
	} else {
		if x < w.min {
			w.min = x
		}
		if x > w.max {
			w.max = x
		}
	}
	delta := x - w.mean
	w.mean += delta / float64(w.n)
	w.m2 += delta * (x - w.mean)
}

// N returns the number of observations.
func (w *Welford) N() int64 { return w.n }

// Mean returns the sample mean, or NaN when empty.
func (w *Welford) Mean() float64 {
	if w.n == 0 {
		return math.NaN()
	}
	return w.mean
}

// variance returns the unbiased sample variance, or NaN with fewer than two
// observations.
func (w *Welford) variance() float64 {
	if w.n < 2 {
		return math.NaN()
	}
	return w.m2 / float64(w.n-1)
}

// Min returns the minimum observation, or NaN when empty.
func (w *Welford) Min() float64 {
	if w.n == 0 {
		return math.NaN()
	}
	return w.min
}

// Max returns the maximum observation, or NaN when empty.
func (w *Welford) Max() float64 {
	if w.n == 0 {
		return math.NaN()
	}
	return w.max
}

// Merge folds other into w, as if every observation of other had been Added
// to w (Chan et al. parallel variance combination).
func (w *Welford) Merge(other *Welford) {
	if other.n == 0 {
		return
	}
	if w.n == 0 {
		*w = *other
		return
	}
	n := w.n + other.n
	delta := other.mean - w.mean
	w.m2 += other.m2 + delta*delta*float64(w.n)*float64(other.n)/float64(n)
	w.mean += delta * float64(other.n) / float64(n)
	if other.min < w.min {
		w.min = other.min
	}
	if other.max > w.max {
		w.max = other.max
	}
	w.n = n
}

// CI95 returns the sample mean and the half-width of its 95% confidence
// interval, using the normal approximation for n >= 30 and Student-t critical
// values for smaller n. Half-width is NaN with fewer than two observations.
func (w *Welford) CI95() (mean, halfWidth float64) {
	mean = w.Mean()
	if w.n < 2 {
		return mean, math.NaN()
	}
	se := math.Sqrt(w.variance()) / math.Sqrt(float64(w.n))
	return mean, tCritical95(w.n-1) * se
}

// tCritical95 returns the two-sided 95% Student-t critical value for the
// given degrees of freedom (exact table for df <= 30, 1.96 beyond).
func tCritical95(df int64) float64 {
	table := []float64{ // df = 1..30
		12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
		2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
		2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
	}
	if df <= 0 {
		return math.NaN()
	}
	if df <= int64(len(table)) {
		return table[df-1]
	}
	return 1.96
}

// TimeWeighted tracks the time-average of a piecewise-constant signal, e.g.
// queue length or allocated bandwidth over simulated time.
type TimeWeighted struct {
	started   bool
	lastT     float64
	lastV     float64
	area      float64
	elapsed   float64
	max       float64
	haveValue bool
}

// Observe records that the signal took value v at time t and holds it until
// the next call. A t earlier than the previous observation (a non-monotonic
// caller clock) or NaN is clamped to the previous time: the value update is
// kept and the bogus interval contributes zero area.
func (tw *TimeWeighted) Observe(t, v float64) {
	if tw.started {
		if t < tw.lastT || math.IsNaN(t) {
			t = tw.lastT
		}
		dt := t - tw.lastT
		tw.area += tw.lastV * dt
		tw.elapsed += dt
	}
	tw.started = true
	tw.lastT, tw.lastV = t, v
	if !tw.haveValue || v > tw.max {
		tw.max, tw.haveValue = v, true
	}
}

// Mean returns the time-average of the signal up to the last observation, or
// NaN if less than two distinct times were observed.
func (tw *TimeWeighted) Mean() float64 {
	if tw.elapsed == 0 {
		return math.NaN()
	}
	return tw.area / tw.elapsed
}

// MeanAt closes the signal at time t (holding the last value) and returns the
// time-average over the whole horizon.
func (tw *TimeWeighted) MeanAt(t float64) float64 {
	if !tw.started {
		return math.NaN()
	}
	tw.Observe(t, tw.lastV)
	return tw.Mean()
}

// Max returns the maximum observed value, or NaN when empty.
func (tw *TimeWeighted) Max() float64 {
	if !tw.haveValue {
		return math.NaN()
	}
	return tw.max
}

// Histogram collects observations for percentile queries. By default it
// stores every raw sample, so percentiles are exact. SetBound switches an
// empty histogram into bounded mode: a fixed-capacity deterministic
// systematic reservoir that retains every stride-th observation in arrival
// order and doubles the stride whenever the retained set hits the bound, so
// steady-state memory (and allocation) stays constant however long the run.
// Bounded percentiles are estimates over the retained subsample — a
// systematic 1-in-stride thinning, never fewer than bound/2 samples — while
// N() always reports the true observation count.
type Histogram struct {
	samples []float64
	sorted  bool
	n       int64 // total observations, including ones thinned away
	bound   int   // retained-sample cap; 0 = exact (unbounded) mode
	stride  int64 // bounded mode: retain every stride-th observation
	skip    int64 // bounded mode: observations left to drop before retaining
}

// SetBound switches h into bounded mode with the given retained-sample cap.
// It panics on a bound below 2 or when observations were already recorded
// (the thinning schedule must see the stream from the start to stay
// deterministic). Bounded mode's thin keeps every second sample in the
// order they are held, which is arrival order only until Percentile sorts
// them in place; so a bounded histogram's Percentile is defined only after
// its last Add or Merge.
func (h *Histogram) SetBound(bound int) {
	if bound < 2 {
		panic(fmt.Sprintf("stats: histogram bound %d < 2", bound))
	}
	if h.n != 0 {
		panic("stats: SetBound on a non-empty histogram")
	}
	h.bound = bound
	h.stride = 1
	h.skip = 0
	if h.samples == nil {
		h.samples = make([]float64, 0, bound)
	}
}

// Add records one observation.
func (h *Histogram) Add(x float64) {
	h.n++
	if h.bound > 0 {
		if h.skip > 0 {
			h.skip--
			return
		}
		h.skip = h.stride - 1
	}
	h.samples = append(h.samples, x)
	h.sorted = false
	if h.bound > 0 && len(h.samples) >= h.bound {
		h.thin()
	}
}

// thin halves the retained set (keeping every 2nd sample in arrival order)
// and doubles the stride, so the reservoir keeps covering the whole stream.
func (h *Histogram) thin() {
	kept := h.samples[:0]
	for i := 0; i < len(h.samples); i += 2 {
		kept = append(kept, h.samples[i])
	}
	h.samples = kept
	h.stride *= 2
	h.skip = h.stride - 1
	h.sorted = false
}

// N returns the number of observations, including any thinned away in
// bounded mode.
func (h *Histogram) N() int { return int(h.n) }

// Percentile returns the p-th percentile (0 <= p <= 100) using linear
// interpolation between closest ranks. NaN when empty; panics on p outside
// [0, 100].
func (h *Histogram) Percentile(p float64) float64 {
	if p < 0 || p > 100 || math.IsNaN(p) {
		panic(fmt.Sprintf("stats: percentile %g out of [0,100]", p))
	}
	if len(h.samples) == 0 {
		return math.NaN()
	}
	if !h.sorted {
		sort.Float64s(h.samples)
		h.sorted = true
	}
	if len(h.samples) == 1 {
		return h.samples[0]
	}
	rank := p / 100 * float64(len(h.samples)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return h.samples[lo]
	}
	frac := rank - float64(lo)
	return h.samples[lo]*(1-frac) + h.samples[hi]*frac
}

// Merge folds other into h: retained samples are appended (and re-thinned
// when h is bounded) and the true observation count is carried over, so
// N() stays the total across both streams.
func (h *Histogram) Merge(other *Histogram) {
	if other == nil || other.n == 0 {
		return
	}
	h.n += other.n
	h.samples = append(h.samples, other.samples...)
	h.sorted = false
	for h.bound > 0 && len(h.samples) >= h.bound {
		h.thin()
	}
}

// BucketQuantile estimates the p-th percentile (0 ≤ p ≤ 100) of a bucketed
// distribution: bounds are the ascending inclusive upper bounds of the
// buckets and counts the per-bucket observation counts, with an optional
// final overflow bucket (len(counts) == len(bounds)+1). The estimate
// interpolates linearly within the target bucket (first bucket's lower edge
// is 0), so for log-scale bounds with ratio r the estimate is within a
// factor r of the exact percentile. It returns NaN on an invalid p, empty
// counts, or when the percentile lands in the unbounded overflow bucket's
// interior (the last bound is returned only when the overflow bucket is
// empty at that rank). Negative counts are treated as zero.
func BucketQuantile(p float64, bounds []float64, counts []int64) float64 {
	if p < 0 || p > 100 || math.IsNaN(p) || len(bounds) == 0 {
		return math.NaN()
	}
	var total int64
	for i := range counts {
		if counts[i] > 0 {
			total += counts[i]
		}
	}
	if total == 0 {
		return math.NaN()
	}
	rank := p / 100 * float64(total)
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i := range counts {
		n := counts[i]
		if n < 0 {
			n = 0
		}
		if float64(cum+n) < rank {
			cum += n
			continue
		}
		if i >= len(bounds) {
			return bounds[len(bounds)-1] // overflow bucket: no upper edge to interpolate to
		}
		lo := 0.0
		if i > 0 {
			lo = bounds[i-1]
		}
		frac := (rank - float64(cum)) / float64(n)
		return lo + frac*(bounds[i]-lo)
	}
	return bounds[len(bounds)-1]
}
