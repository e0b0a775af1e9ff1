// Package telemetry is the simulator's deterministic observability layer:
// a metrics registry of monotonic counters, gauges and fixed-bound log-scale
// histograms keyed by (metric name, service class), plus a Collector the
// engine drives from its hot points (arrivals, transmissions, blocks, sheds,
// retries, queue depth, bandwidth occupancy) and snapshots at a fixed
// sim-time cadence.
//
// The layer obeys the repository's determinism contract: no wall clock, no
// map-order-dependent effects (every export collects keys and sorts them),
// and fixed histogram bucket bounds, so a snapshot stream is a pure function
// of the simulated event trajectory. Counters and histograms are exactly
// reproducible from a trace — trace.VerifySnapshots replays the event stream
// through a fresh Collector and cross-checks every embedded snapshot
// bit-for-bit. Gauges are sampled live state (queue depth, bandwidth in use)
// and are excluded from the replay audit.
package telemetry

import (
	"math"
	"sort"
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
	counts []int64
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

// Counts returns a copy of the per-bucket counts (len(delayBounds)+1,
// overflow last), nil when nothing was observed.
func (h *Histogram) Counts() []int64 {
	if h.counts == nil {
		return nil
	}
	return append([]int64(nil), h.counts...)
}

// metricKey identifies one metric instance: a name plus the service class it
// is labelled with (ClassNone for unlabelled metrics).
type metricKey struct {
	name  string
	class int
}

// ClassNone labels metrics that are not split by service class.
const ClassNone = -1

// Registry holds the live metric instances. Instances are created lazily on
// first touch; export order is deterministic (sorted by name, then class).
// The zero value is not usable; call NewRegistry.
type Registry struct {
	counters map[metricKey]*Counter
	gauges   map[metricKey]*Gauge
	hists    map[metricKey]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[metricKey]*Counter),
		gauges:   make(map[metricKey]*Gauge),
		hists:    make(map[metricKey]*Histogram),
	}
}

// Counter returns (creating if needed) the counter name{class}.
func (r *Registry) Counter(name string, class int) *Counter {
	k := metricKey{name, class}
	c, ok := r.counters[k]
	if !ok {
		c = &Counter{}
		r.counters[k] = c
	}
	return c
}

// Gauge returns (creating if needed) the gauge name{class}.
func (r *Registry) Gauge(name string, class int) *Gauge {
	k := metricKey{name, class}
	g, ok := r.gauges[k]
	if !ok {
		g = &Gauge{}
		r.gauges[k] = g
	}
	return g
}

// Histogram returns (creating if needed) the histogram name{class}.
func (r *Registry) Histogram(name string, class int) *Histogram {
	k := metricKey{name, class}
	h, ok := r.hists[k]
	if !ok {
		h = &Histogram{}
		r.hists[k] = h
	}
	return h
}

// sortedKeys returns the map's keys ordered by less — the collect-then-sort
// idiom every export path goes through, so no output ever depends on Go's
// randomised map iteration order.
func sortedKeys[K comparable, V any](m map[K]V, less func(a, b K) bool) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return less(keys[i], keys[j]) })
	return keys
}

// keyLess orders metric keys by (name, class).
func keyLess(a, b metricKey) bool {
	if a.name != b.name {
		return a.name < b.name
	}
	return a.class < b.class
}
