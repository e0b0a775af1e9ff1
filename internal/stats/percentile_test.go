package stats

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"hybridqos/internal/rng"
)

// sortHist is the sort-based reference for Histogram.Percentile: it sorts
// the held samples in place with sort.Float64s and reads the two closest
// ranks, remembering that it sorted until the samples change.
type sortHist struct {
	s      []float64
	sorted bool
}

func (r *sortHist) percentile(p float64) float64 {
	if len(r.s) == 0 {
		return math.NaN()
	}
	if !r.sorted {
		sort.Float64s(r.s)
		r.sorted = true
	}
	if len(r.s) == 1 {
		return r.s[0]
	}
	rank := p / 100 * float64(len(r.s)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return r.s[lo]
	}
	frac := rank - float64(lo)
	return r.s[lo]*(1-frac) + r.s[hi]*frac
}

// palette holds the values a one-byte sample code picks from: ties of
// every kind sort.Float64s can meet (−0 beside +0, NaN payloads, ±Inf,
// duplicates).
var palette = []float64{
	0, math.Copysign(0, -1), 1, 2, 2.5, -3, math.Inf(1), math.Inf(-1),
	math.NaN(), math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0xfff8000000000000),
	1e-300, -1e300, 7, 7, 0.1,
}

// decodeSamples turns fuzz bytes into samples: when the first byte is odd,
// each later byte picks a palette value (many duplicates and ties);
// otherwise every 8 bytes are one float64's bits.
func decodeSamples(data []byte) []float64 {
	if len(data) == 0 {
		return nil
	}
	var s []float64
	if data[0]&1 == 1 {
		for _, c := range data[1:] {
			s = append(s, palette[int(c)%len(palette)])
		}
		return s
	}
	for data = data[1:]; len(data) >= 8; data = data[8:] {
		var u uint64
		for i := 0; i < 8; i++ {
			u |= uint64(data[i]) << (8 * i)
		}
		s = append(s, math.Float64frombits(u))
	}
	return s
}

// fuzzP maps any float to a valid percentile.
func fuzzP(p float64) float64 {
	if math.IsNaN(p) {
		return 50
	}
	p = math.Abs(p)
	if p > 100 {
		p = math.Mod(p, 101)
	}
	return math.Min(p, 100)
}

// FuzzPercentile checks Histogram.Percentile, which selects, against the
// sort-based reference on the same held samples, bit for bit, for two
// successive queries. The histogram is built from two parts joined by
// Merge, bounded when bound >= 2 (queried only after its last Merge, as
// SetBound requires).
func FuzzPercentile(f *testing.F) {
	for _, p := range []float64{0, 50, 95, 100} {
		f.Add([]byte{1, 0, 1, 8, 9, 10, 6, 7, 3, 3, 3}, uint16(0), uint16(4), p, 100-p)
	}
	f.Add([]byte{1, 0}, uint16(0), uint16(0), 95.0, 50.0)       // one sample
	f.Add([]byte{1, 1, 1, 1}, uint16(0), uint16(1), 0.0, 100.0) // −0 duplicates
	f.Add([]byte{1, 8, 9, 2}, uint16(0), uint16(2), 0.0, 50.0)  // two NaN payloads
	f.Add([]byte{1, 6, 7, 6, 7, 2}, uint16(0), uint16(3), 20.0, 80.0)
	var long []byte
	for i := 0; i < 400; i++ {
		long = append(long, byte(i*7919%251))
	}
	for _, bound := range []uint16{0, 2, 16, 64} {
		for _, p := range []float64{0, 50, 95, 100} {
			f.Add(append([]byte{1}, long...), bound, uint16(150), p, 95.0)
		}
	}
	// Ties absent: only NaNs of one payload, and zeros of one sign.
	var distinct []byte
	for i := 0; i < 300; i++ {
		distinct = append(distinct, byte([]int{0, 2, 3, 4, 5, 6, 8, 12, 13, 15}[i*31%10]))
	}
	for _, p := range []float64{0, 50, 95, 100} {
		f.Add(append([]byte{1}, distinct...), uint16(0), uint16(100), p, 5.0)
		f.Add(append([]byte{1}, distinct...), uint16(40), uint16(10), p, 99.5)
	}
	// Ties present, in inputs long enough for sort.Float64s to partition
	// rather than insertion-sort: −0 beside +0, and three NaN payloads.
	var zeros, nans []byte
	for i := 0; i < 40; i++ {
		zeros = append(zeros, byte([]int{0, 1, 1, 0, 2, 0, 1}[i%7]))
		nans = append(nans, byte([]int{8, 9, 10, 0, 9, 3}[i%6]))
	}
	for _, p := range []float64{0, 25, 50} {
		f.Add(append([]byte{1}, zeros...), uint16(0), uint16(17), p, 40.0)
		f.Add(append([]byte{1}, nans...), uint16(0), uint16(17), p, 30.0)
	}
	raw := []byte{0}
	for _, x := range []float64{3, math.Inf(-1), 1e9, math.Copysign(0, -1), 4.5, 3, -2} {
		u := math.Float64bits(x)
		for i := 0; i < 8; i++ {
			raw = append(raw, byte(u>>(8*i)))
		}
	}
	f.Add(raw, uint16(0), uint16(3), 50.0, 95.0)
	f.Fuzz(func(t *testing.T, data []byte, bound, split uint16, p1, p2 float64) {
		samples := decodeSamples(data)
		var h, part Histogram
		if b := int(bound % 300); b >= 2 {
			h.SetBound(b)
			part.SetBound(b)
		}
		cut := 0
		if len(samples) > 0 {
			cut = int(split) % (len(samples) + 1)
		}
		for _, x := range samples[:cut] {
			h.Add(x)
		}
		for _, x := range samples[cut:] {
			part.Add(x)
		}
		h.Merge(&part)
		if h.N() != len(samples) {
			t.Fatalf("N = %d, want %d", h.N(), len(samples))
		}
		ref := sortHist{s: append([]float64(nil), h.samples...)}
		for _, p := range []float64{fuzzP(p1), fuzzP(p2)} {
			got, want := h.Percentile(p), ref.percentile(p)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("P%g of %v = %v (%#x), sort path gives %v (%#x)",
					p, ref.s, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	})
}

// TestPercentileSelectsLikeSort compares the selection with the sort path
// on inputs long enough for many partition rounds, in the shapes that
// defeat naive pivots: sorted, reversed, organ-pipe, few distinct values.
func TestPercentileSelectsLikeSort(t *testing.T) {
	const n = 5000
	r := rng.New(41)
	shapes := map[string]func(i int) float64{
		"random":    func(int) float64 { return r.Exp(1) },
		"sorted":    func(i int) float64 { return float64(i) },
		"reversed":  func(i int) float64 { return float64(n - i) },
		"organpipe": func(i int) float64 { return float64(min(i, n-i)) },
		"fewvalues": func(int) float64 { return float64(r.Intn(3)) },
		"constant":  func(int) float64 { return 1 },
	}
	for name, gen := range shapes {
		for _, p := range []float64{0, 1, 50, 95, 99.9, 100} {
			var h Histogram
			for i := 0; i < n; i++ {
				h.Add(gen(i))
			}
			ref := sortHist{s: append([]float64(nil), h.samples...)}
			if got, want := h.Percentile(p), ref.percentile(p); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("%s P%g = %v, sort path gives %v", name, p, got, want)
			}
		}
	}
}

// BenchmarkPercentile times one p95 query on n exponential samples, the
// shape of a run's delays, by selection and by the sort path. Each
// iteration copies the samples afresh (a memmove, cheap beside either).
func BenchmarkPercentile(b *testing.B) {
	for _, n := range []int{1e3, 1e4, 1e5, 1e6} {
		r := rng.New(5)
		src := make([]float64, n)
		for i := range src {
			src[i] = r.Exp(1)
		}
		b.Run(fmt.Sprintf("n=%d/select", n), func(b *testing.B) {
			h := Histogram{samples: make([]float64, n)}
			for i := 0; i < b.N; i++ {
				copy(h.samples, src)
				h.Percentile(95)
			}
		})
		b.Run(fmt.Sprintf("n=%d/sort", n), func(b *testing.B) {
			ref := sortHist{s: make([]float64, n)}
			for i := 0; i < b.N; i++ {
				copy(ref.s, src)
				ref.sorted = false
				ref.percentile(95)
			}
		})
	}
}
