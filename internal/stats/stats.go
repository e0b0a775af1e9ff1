// Package stats provides the statistics machinery used to reduce simulation
// output: streaming moments (Welford), confidence intervals over independent
// replications, histograms with percentile queries, and time-weighted
// averages for quantities sampled over simulated time (queue lengths,
// bandwidth occupancy).
package stats

import (
	"fmt"
	"math"
	"math/bits"
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
// order they are held, which is arrival order only until Percentile
// reorders them in place (by selection, or by sorting); so a bounded
// histogram's Percentile is defined only after its last Add or Merge.
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
//
// It finds the two closest-rank order statistics by selection, in expected
// linear time, and leaves the samples partly reordered. The result is the
// one reading them off sort.Float64s's order gives, bit for bit: an order
// statistic depends only on the multiset of samples, unless two samples
// that sort.Float64s holds equal differ in bits (a −0 and a +0, or NaNs
// with different payloads). Only then does Percentile sort the samples in
// place instead, and read them from sorted order until the next Add or
// Merge.
func (h *Histogram) Percentile(p float64) float64 {
	if p < 0 || p > 100 || math.IsNaN(p) {
		panic(fmt.Sprintf("stats: percentile %g out of [0,100]", p))
	}
	s := h.samples
	if len(s) == 0 {
		return math.NaN()
	}
	if len(s) == 1 {
		return s[0]
	}
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	var a, b float64
	if !h.sorted {
		if nans, tied := ties(s); tied {
			sort.Float64s(s)
			h.sorted = true
		} else {
			a, b = orderStats(s, nans, lo, hi)
		}
	}
	if h.sorted {
		a, b = s[lo], s[hi]
	}
	if lo == hi {
		return a
	}
	frac := rank - float64(lo)
	return a*(1-frac) + b*frac
}

// ties counts the NaNs in s and reports whether s holds two samples that
// sort.Float64s orders as equal but whose bits differ: a −0 and a +0, or
// two NaN payloads. Without such a pair every position of the sorted order
// holds a value fixed by the multiset alone.
func ties(s []float64) (nans int, tied bool) {
	var zero, nan uint64
	zeros := false
	for _, x := range s {
		if x == 0 {
			u := math.Float64bits(x)
			if zeros && u != zero {
				return nans, true
			}
			zero, zeros = u, true
		} else if x != x {
			u := math.Float64bits(x)
			if nans > 0 && u != nan {
				return nans, true
			}
			nan = u
			nans++
		}
	}
	return nans, false
}

// orderStats returns the lo-th and hi-th (lo or lo+1) values of
// sort.Float64s's order of s, which holds nans NaNs and no tie (see ties):
// it gathers the NaNs at the front, where that order puts them, and selects
// among the rest.
func orderStats(s []float64, nans, lo, hi int) (a, b float64) {
	if nans > 0 {
		j := 0
		for i, x := range s {
			if x != x {
				s[i], s[j] = s[j], x
				j++
			}
		}
	}
	rest := s[nans:]
	if lo < nans {
		a = s[lo]
	} else {
		selectNth(rest, lo-nans)
		a = rest[lo-nans]
	}
	switch {
	case hi == lo:
		b = a
	case hi < nans:
		b = s[hi]
	case lo < nans:
		b = minOf(rest)
	default:
		// selectNth left every value above rank lo to its right.
		b = minOf(rest[hi-nans:])
	}
	return a, b
}

// selectNth reorders s, which holds no NaN, so that s[k] holds the value
// sorting would put there, s[:k] nothing larger and s[k+1:] nothing
// smaller: Hoare's FIND with median-of-three pivots. A range still wider
// than a dozen after 2·log2(len(s)) partitions is sorted instead, which
// bounds the worst case at O(n log n).
func selectNth(s []float64, k int) {
	lo, hi := 0, len(s)-1
	for budget := 2 * bits.Len(uint(len(s))); hi-lo > 12 && budget > 0; budget-- {
		mid := int(uint(lo+hi) >> 1)
		if s[mid] < s[lo] {
			s[mid], s[lo] = s[lo], s[mid]
		}
		if s[hi] < s[lo] {
			s[hi], s[lo] = s[lo], s[hi]
		}
		if s[hi] < s[mid] {
			s[hi], s[mid] = s[mid], s[hi]
		}
		pivot := s[mid]
		i, j := lo, hi
		for i <= j {
			for s[i] < pivot {
				i++
			}
			for pivot < s[j] {
				j--
			}
			if i <= j {
				s[i], s[j] = s[j], s[i]
				i++
				j--
			}
		}
		// Now s[lo:j+1] <= pivot <= s[i:hi+1], and s[j+1:i] equals pivot.
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return
		}
	}
	sort.Float64s(s[lo : hi+1])
}

// minOf returns the smallest value of the non-empty, NaN-free s.
func minOf(s []float64) float64 {
	m := s[0]
	for _, x := range s[1:] {
		if x < m {
			m = x
		}
	}
	return m
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
