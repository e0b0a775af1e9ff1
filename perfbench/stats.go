package main

import (
	"fmt"
	"math"
	"sort"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear interpolation
// between closest ranks (the "inclusive" definition: quantile(0) is the
// minimum, quantile(1) the maximum). xs is not modified. NaN when empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// median is quantile(xs, 0.5).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quartiles returns the first and third quartiles exactly as Python's
// statistics.quantiles(xs, n=4) computes them (its default "exclusive"
// method, including its linear extrapolation for very small samples),
// which is how the spread of repeated benchmark runs is judged. It needs
// at least two values.
func quartiles(xs []float64) (q1, q3 float64, err error) {
	if len(xs) < 2 {
		return 0, 0, fmt.Errorf("quartiles: need at least 2 values, have %d", len(xs))
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	const n = 4
	at := func(i int) float64 {
		j := i * (ld + 1) / n
		j = min(max(j, 1), ld-1)
		delta := float64(i*(ld+1) - j*n)
		return (s[j-1]*(n-delta) + s[j]*delta) / n
	}
	return at(1), at(3), nil
}

// relSpread is the interquartile distance of xs as a share of its median.
func relSpread(xs []float64) (float64, error) {
	q1, q3, err := quartiles(xs)
	if err != nil {
		return 0, err
	}
	m := median(xs)
	if m == 0 {
		return 0, fmt.Errorf("relSpread: zero median")
	}
	return (q3 - q1) / math.Abs(m), nil
}
