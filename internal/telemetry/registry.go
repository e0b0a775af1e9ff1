// Package telemetry is the simulator's deterministic observability layer:
// a metrics registry of monotonic counters, gauges and fixed-bound log-scale
// histograms keyed by (metric name, service class), plus a Collector the
// engine drives from its hot points (arrivals, transmissions, blocks, sheds,
// retries, queue depth, bandwidth occupancy) and snapshots at a fixed
// sim-time cadence.
//
// The layer obeys the repository's determinism contract: no wall clock, no
// map-order-dependent effects (every export walks keys kept in sorted order),
// and fixed histogram bucket bounds, so a snapshot stream is a pure function
// of the simulated event trajectory. Counters and histograms are exactly
// reproducible from a trace — trace.VerifySnapshots replays the event stream
// through a fresh Collector and cross-checks every embedded snapshot
// bit-for-bit. Gauges are sampled live state (queue depth, bandwidth in use)
// and are excluded from the replay audit.
package telemetry

import (
	"cmp"
	"math"
	"slices"
	"sort"
	"strings"
)

// delayBounds are the inclusive upper bounds of the log-scale (base-2) delay
// histogram buckets, in broadcast units, plus an implicit +Inf overflow
// bucket. The bounds are fixed constants — part of the snapshot format — so
// two runs, or a run and its replay, always agree on bucket layout.
var delayBounds = []float64{
	0.0625, 0.125, 0.25, 0.5, 1, 2, 4, 8, 16, 32,
	64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384,
}

// Counter is a monotonically increasing event count.
type Counter struct {
	v int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v++ }

// Add adds n. Negative n is ignored: counters are monotonic by contract.
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v += n
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v }

// Gauge is an instantaneous value that can move both ways.
type Gauge struct {
	v float64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.v = v }

// SetMax keeps the maximum of the current and the given value.
func (g *Gauge) SetMax(v float64) {
	if v > g.v {
		g.v = v
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return g.v }

// Histogram counts observations into the fixed log-scale buckets. Counts and
// the running sum are exactly reproducible from the observation sequence, so
// histograms participate in the replay audit.
type Histogram struct {
	counts []int64 // per bucket (len(delayBounds)+1, overflow last); nil until the first observation
	sum    float64
}

// Observe records one observation. NaN is ignored (it has no bucket).
func (h *Histogram) Observe(x float64) {
	if math.IsNaN(x) {
		return
	}
	if h.counts == nil {
		h.counts = make([]int64, len(delayBounds)+1)
	}
	h.counts[bucketIndex(x)]++
	h.sum += x
}

// bucketIndex returns the bucket for x: the first bound ≥ x, or the overflow
// bucket when x exceeds every bound.
func bucketIndex(x float64) int {
	return sort.SearchFloat64s(delayBounds, x)
}

// N returns the total observation count.
func (h *Histogram) N() int64 {
	var n int64
	for _, c := range h.counts {
		n += c
	}
	return n
}

// Sum returns the running sum of observations.
func (h *Histogram) Sum() float64 { return h.sum }

// metricKey identifies one metric instance: a name plus the service class it
// is labelled with (ClassNone for unlabelled metrics).
type metricKey struct {
	name  string
	class int
}

// compare orders metric keys by (name, class).
func (a metricKey) compare(b metricKey) int {
	if c := strings.Compare(a.name, b.name); c != 0 {
		return c
	}
	return cmp.Compare(a.class, b.class)
}

// ClassNone labels metrics that are not split by service class.
const ClassNone = -1

// family holds the instances of one kind of metric, created lazily on first
// touch: an index by key, and every instance in key order. A new instance
// is inserted at its sorted position, so exports walk order as it stands
// and never sort, and no output depends on Go's randomised map order. The
// zero value is an empty family.
type family[K interface {
	comparable
	compare(K) int
}, M any] struct {
	byKey map[K]*M
	order []member[K, M]
}

// member is one instance of a family with its key.
type member[K comparable, M any] struct {
	key K
	m   *M
}

// get returns (creating if needed) the instance for k.
func (f *family[K, M]) get(k K) *M {
	if m, ok := f.byKey[k]; ok {
		return m
	}
	if f.byKey == nil {
		f.byKey = make(map[K]*M)
	}
	m := new(M)
	f.byKey[k] = m
	i, _ := slices.BinarySearchFunc(f.order, k, func(e member[K, M], k K) int { return e.key.compare(k) })
	f.order = slices.Insert(f.order, i, member[K, M]{k, m})
	return m
}

// Registry holds the live metric instances. Instances are created lazily on
// first touch; export order is deterministic (sorted by name, then class).
// The zero value is an empty registry.
type Registry struct {
	counters family[metricKey, Counter]
	gauges   family[metricKey, Gauge]
	hists    family[metricKey, Histogram]
}

// Counter returns (creating if needed) the counter name{class}.
func (r *Registry) Counter(name string, class int) *Counter {
	return r.counters.get(metricKey{name, class})
}

// Gauge returns (creating if needed) the gauge name{class}.
func (r *Registry) Gauge(name string, class int) *Gauge {
	return r.gauges.get(metricKey{name, class})
}

// Histogram returns (creating if needed) the histogram name{class}.
func (r *Registry) Histogram(name string, class int) *Histogram {
	return r.hists.get(metricKey{name, class})
}
