package telemetry

import (
	"cmp"
	"fmt"
	"math"

	"hybridqos/internal/rng"
)

// Metric names the Collector maintains. Counters and histograms are derived
// one-for-one from trace events (replay-auditable); gauges sample live engine
// state and exist only in live snapshots.
const (
	// Counters, keyed by class unless noted.
	MetricArrivals       = "arrivals"           // requests reaching the server
	MetricServedPush     = "served_push"        // requests satisfied by a broadcast
	MetricServedPull     = "served_pull"        // requests satisfied on demand
	MetricBlockedReqs    = "blocked_requests"   // requests lost to bandwidth blocking
	MetricRetries        = "retries"            // client re-requests after corruption
	MetricShed           = "shed"               // requests refused by admission control
	MetricPushBroadcasts = "push_broadcasts"    // unlabelled: completed broadcasts
	MetricPullTx         = "pull_transmissions" // unlabelled: completed pull transmissions
	MetricBlocked        = "blocked"            // unlabelled: pull entries blocked
	MetricCorruptPush    = "corrupt_push"       // unlabelled: broadcasts lost downlink
	MetricCorruptPull    = "corrupt_pull"       // unlabelled: pull deliveries lost downlink

	// Counters emitted only by the serving mode (cmd/qosd). The registry
	// creates metrics lazily, so attaching these names costs a simulation
	// run nothing: sim snapshots are byte-identical with or without them.
	MetricExpired       = "expired"        // admitted requests that missed their deadline
	MetricRateLimited   = "rate_limited"   // requests refused by the class token bucket
	MetricQuotaExceeded = "quota_exceeded" // requests refused by the class pending quota
	MetricRejected      = "rejected"       // requests refused before admission (bad key, draining)

	// Counters emitted only by multi-cell runs (internal/cluster). Like the
	// serving-mode names, they attach lazily and cost single-cell runs
	// nothing.
	MetricHandoffs       = "handoffs"        // roaming requests accepted into the cell
	MetricHandoffRefused = "handoff_refused" // roaming requests the cell turned away

	// Histograms, keyed by class.
	MetricDelay = "delay" // access time of served requests

	// Gauges (live-only; excluded from the replay audit).
	MetricQueueItems       = "queue_items"        // distinct items pending pull
	MetricQueueRequests    = "queue_requests"     // requests pending pull
	MetricQueueRequestsMax = "queue_requests_max" // peak pending requests so far
	MetricPendingRetries   = "pending_retries"    // booked but undelivered re-requests
	MetricBandwidthInUse   = "bandwidth_in_use"   // per-class reserved bandwidth units
	MetricShedLevel        = "shed_level"         // admission shed level (classes refused)
	MetricDraining         = "draining"           // 1 once graceful drain has begun
)

// Options parameterises a Collector.
type Options struct {
	// SnapshotEvery is the sim-time snapshot cadence in broadcast units. The
	// engine emits one trace.KindSnapshot event every SnapshotEvery units of
	// simulated time. 0 disables periodic snapshots (the collector still
	// counts; TakeSnapshot may be called manually).
	SnapshotEvery float64
	// OnSnapshot, when non-nil, is called with every snapshot as it is taken
	// — synchronously, from the simulation loop. Used by the CLI layer to
	// serve live /metrics; keep it fast and do not touch simulation state.
	OnSnapshot func(*Snapshot)
	// Cell labels every snapshot with the broadcast cell the collector
	// belongs to in multi-cell runs; leave 0 for single-cell runs.
	Cell int
	// Exemplars caps the sampled span IDs kept per (class, delay bucket):
	// each bucket carries up to Exemplars IDs chosen by a deterministic
	// reservoir (Algorithm R) over the span IDs observed for it, linking the
	// aggregate histogram back to concrete requests. 0 disables exemplars;
	// replay audits exclude them either way (DiffReplay compares counters
	// and histograms only, so snapshots stay comparable across collectors
	// with different exemplar settings).
	Exemplars int
	// ExemplarRNG drives reservoir replacement and must be a stream split
	// from the run's seeded root when Exemplars > 0, keeping exemplar
	// selection a pure function of the seed.
	ExemplarRNG *rng.Source
}

// Collector is the engine-facing instrumentation front end. Like a
// trace.Tracer it is a sink of one run: the run writes to it and never reads
// it, and it accumulates whatever runs it is given, so whoever reads a
// collector builds it for the run it reads. It is not safe for concurrent
// use; sim.SweepConfigs hands a config's collector to one job only.
type Collector struct {
	reg        Registry
	every      float64
	onSnapshot func(*Snapshot)
	snapshots  int64
	cell       int
	exK        int
	exRng      *rng.Source
	exemplars  family[exemplarKey, exemplarRes]

	// Handle caches, indexed by class+1 (ClassNone in slot 0): the
	// registry instance each metric{class} resolved to on first touch, so
	// the per-event path skips the registry's string-keyed map.
	counters [numCounters][handleSlots]*Counter
	gauges   [numGauges][handleSlots]*Gauge
	delay    [handleSlots]*Histogram
}

// handleSlots bounds the cached class range: classes ClassNone through
// handleSlots−2 are cached; any other class goes to the registry directly.
const handleSlots = 16

// counterID and gaugeID index the handle caches; counterNames and
// gaugeNames give each its metric name.
type (
	counterID uint8
	gaugeID   uint8
)

const (
	cArrivals counterID = iota
	cServedPush
	cServedPull
	cBlockedReqs
	cRetries
	cShed
	cPushBroadcasts
	cPullTx
	cBlocked
	cCorruptPush
	cCorruptPull
	cExpired
	cRateLimited
	cQuotaExceeded
	cRejected
	cHandoffs
	cHandoffRefused
	numCounters
)

var counterNames = [numCounters]string{
	cArrivals: MetricArrivals, cServedPush: MetricServedPush, cServedPull: MetricServedPull,
	cBlockedReqs: MetricBlockedReqs, cRetries: MetricRetries, cShed: MetricShed,
	cPushBroadcasts: MetricPushBroadcasts, cPullTx: MetricPullTx, cBlocked: MetricBlocked,
	cCorruptPush: MetricCorruptPush, cCorruptPull: MetricCorruptPull,
	cExpired: MetricExpired, cRateLimited: MetricRateLimited, cQuotaExceeded: MetricQuotaExceeded,
	cRejected: MetricRejected, cHandoffs: MetricHandoffs, cHandoffRefused: MetricHandoffRefused,
}

const (
	gQueueItems gaugeID = iota
	gQueueRequests
	gQueueRequestsMax
	gPendingRetries
	gBandwidthInUse
	gShedLevel
	gDraining
	numGauges
)

var gaugeNames = [numGauges]string{
	gQueueItems: MetricQueueItems, gQueueRequests: MetricQueueRequests,
	gQueueRequestsMax: MetricQueueRequestsMax, gPendingRetries: MetricPendingRetries,
	gBandwidthInUse: MetricBandwidthInUse, gShedLevel: MetricShedLevel, gDraining: MetricDraining,
}

// counter returns the counter metric{class}, creating it in the registry on
// first touch.
func (c *Collector) counter(id counterID, class int) *Counter {
	slot := class + 1
	if uint(slot) >= handleSlots {
		return c.reg.Counter(counterNames[id], class)
	}
	h := c.counters[id][slot]
	if h == nil {
		h = c.reg.Counter(counterNames[id], class)
		c.counters[id][slot] = h
	}
	return h
}

// gauge returns the gauge metric{class}, creating it on first touch.
func (c *Collector) gauge(id gaugeID, class int) *Gauge {
	slot := class + 1
	if uint(slot) >= handleSlots {
		return c.reg.Gauge(gaugeNames[id], class)
	}
	h := c.gauges[id][slot]
	if h == nil {
		h = c.reg.Gauge(gaugeNames[id], class)
		c.gauges[id][slot] = h
	}
	return h
}

// delayHist returns the delay histogram for class, creating it on first
// touch.
func (c *Collector) delayHist(class int) *Histogram {
	slot := class + 1
	if uint(slot) >= handleSlots {
		return c.reg.Histogram(MetricDelay, class)
	}
	h := c.delay[slot]
	if h == nil {
		h = c.reg.Histogram(MetricDelay, class)
		c.delay[slot] = h
	}
	return h
}

// exemplarKey addresses one delay-bucket reservoir.
type exemplarKey struct {
	class  int
	bucket int
}

// compare orders reservoir keys by (class, bucket).
func (a exemplarKey) compare(b exemplarKey) int {
	if c := cmp.Compare(a.class, b.class); c != 0 {
		return c
	}
	return cmp.Compare(a.bucket, b.bucket)
}

// exemplarRes is one bucket's span-ID reservoir: Algorithm R over the
// stream of sampled span IDs observed for the bucket.
type exemplarRes struct {
	spans []int64
	seen  int64
}

// New builds a Collector. SnapshotEvery must be non-negative and finite.
func New(opts Options) (*Collector, error) {
	if opts.SnapshotEvery < 0 || math.IsNaN(opts.SnapshotEvery) || math.IsInf(opts.SnapshotEvery, 0) {
		return nil, fmt.Errorf("telemetry: invalid snapshot cadence %g", opts.SnapshotEvery)
	}
	if opts.Exemplars < 0 {
		return nil, fmt.Errorf("telemetry: negative exemplar reservoir size %d", opts.Exemplars)
	}
	if opts.Exemplars > 0 && opts.ExemplarRNG == nil {
		return nil, fmt.Errorf("telemetry: exemplars enabled without an RNG stream")
	}
	return &Collector{
		every:      opts.SnapshotEvery,
		onSnapshot: opts.OnSnapshot,
		cell:       opts.Cell,
		exK:        opts.Exemplars,
		exRng:      opts.ExemplarRNG,
	}, nil
}

// Cell returns the broadcast cell the collector is labelled with (0 in
// single-cell runs).
func (c *Collector) Cell() int { return c.cell }

// SnapshotEvery returns the configured snapshot cadence (0 = disabled).
func (c *Collector) SnapshotEvery() float64 { return c.every }

// Arrival counts one request arrival for the class.
func (c *Collector) Arrival(class int) {
	c.counter(cArrivals, class).Inc()
}

// Served counts one satisfied request and observes its access delay. push
// distinguishes broadcast-served from pull-served (a client-cache hit counts
// as pull-served with zero delay, mirroring the trace event it comes from).
func (c *Collector) Served(class int, delay float64, push bool) {
	if push {
		c.counter(cServedPush, class).Inc()
	} else {
		c.counter(cServedPull, class).Inc()
	}
	c.delayHist(class).Observe(delay)
}

// PushComplete counts one completed broadcast transmission.
func (c *Collector) PushComplete() {
	c.counter(cPushBroadcasts, ClassNone).Inc()
}

// PullComplete counts one completed pull transmission.
func (c *Collector) PullComplete() {
	c.counter(cPullTx, ClassNone).Inc()
}

// Blocked counts one pull entry dropped for bandwidth, attributing its
// pending requests to the entry's governing class.
func (c *Collector) Blocked(class, requests int) {
	c.counter(cBlocked, ClassNone).Inc()
	c.counter(cBlockedReqs, class).Add(int64(requests))
}

// Corrupt counts one transmission lost on the lossy downlink.
func (c *Collector) Corrupt(push bool) {
	if push {
		c.counter(cCorruptPush, ClassNone).Inc()
	} else {
		c.counter(cCorruptPull, ClassNone).Inc()
	}
}

// Retry counts one client re-request for the class.
func (c *Collector) Retry(class int) {
	c.counter(cRetries, class).Inc()
}

// Shed counts one admission-control refusal for the class.
func (c *Collector) Shed(class int) {
	c.counter(cShed, class).Inc()
}

// Expired counts one admitted request that missed its deadline (serving
// mode: the client was answered 504 before the item's transmission).
func (c *Collector) Expired(class int) {
	c.counter(cExpired, class).Inc()
}

// RateLimited counts one request refused by the class's token bucket.
func (c *Collector) RateLimited(class int) {
	c.counter(cRateLimited, class).Inc()
}

// QuotaExceeded counts one request refused by the class's pending quota.
func (c *Collector) QuotaExceeded(class int) {
	c.counter(cQuotaExceeded, class).Inc()
}

// Handoff counts one roaming request accepted into the cell (multi-cell
// runs).
func (c *Collector) Handoff(class int) {
	c.counter(cHandoffs, class).Inc()
}

// HandoffRefused counts one roaming request the cell turned away — deadline
// expired in transit, admission shed, or item absent from the cell's catalog.
func (c *Collector) HandoffRefused(class int) {
	c.counter(cHandoffRefused, class).Inc()
}

// Rejected counts one request refused before admission control was
// consulted — unknown API key (ClassNone) or a draining server.
func (c *Collector) Rejected(class int) {
	c.counter(cRejected, class).Inc()
}

// Exemplar attaches a sampled span ID to the delay bucket the observation
// falls in, keeping at most K IDs per (class, bucket) via Algorithm R so
// every observed span has an equal chance of surviving. No-op when
// exemplars are disabled or the span ID is 0 (unsampled request).
func (c *Collector) Exemplar(class int, delay float64, span int64) {
	if c.exK == 0 || span == 0 {
		return
	}
	res := c.exemplars.get(exemplarKey{class: class, bucket: bucketIndex(delay)})
	res.seen++
	if len(res.spans) < c.exK {
		res.spans = append(res.spans, span)
		return
	}
	if j := c.exRng.Intn(int(res.seen)); j < c.exK {
		res.spans[j] = span
	}
}

// ObserveShedLevel samples the admission controller's shed level.
func (c *Collector) ObserveShedLevel(level int) {
	c.gauge(gShedLevel, ClassNone).Set(float64(level))
}

// ObserveDraining marks whether graceful drain has begun.
func (c *Collector) ObserveDraining(draining bool) {
	v := 0.0
	if draining {
		v = 1
	}
	c.gauge(gDraining, ClassNone).Set(v)
}

// ObserveQueue samples the pull queue depth (distinct items and pending
// requests). Called by the engine whenever the queue changes, so the gauges
// hold the exact current depth at every snapshot tick.
func (c *Collector) ObserveQueue(items, requests int) {
	c.gauge(gQueueItems, ClassNone).Set(float64(items))
	c.gauge(gQueueRequests, ClassNone).Set(float64(requests))
	c.gauge(gQueueRequestsMax, ClassNone).SetMax(float64(requests))
}

// ObservePendingRetries samples the count of booked-but-undelivered client
// re-requests.
func (c *Collector) ObservePendingRetries(n int) {
	c.gauge(gPendingRetries, ClassNone).Set(float64(n))
}

// ObserveBandwidth samples one class's reserved bandwidth units.
func (c *Collector) ObserveBandwidth(class int, inUse float64) {
	c.gauge(gBandwidthInUse, class).Set(inUse)
}

// Snapshots returns how many snapshots have been taken.
func (c *Collector) Snapshots() int64 { return c.snapshots }

// CounterSnap is one counter's value in a snapshot.
type CounterSnap struct {
	// Name is the metric name.
	Name string `json:"name"`
	// Class is the service class label, ClassNone (-1) when unlabelled.
	Class int `json:"class"`
	// V is the count.
	V int64 `json:"v"`
}

// GaugeSnap is one gauge's value in a snapshot.
type GaugeSnap struct {
	Name  string  `json:"name"`
	Class int     `json:"class"`
	V     float64 `json:"v"`
}

// HistSnap is one histogram's state in a snapshot. Counts follow the fixed
// delay-bucket layout (one count per bound, overflow last).
type HistSnap struct {
	Name   string  `json:"name"`
	Class  int     `json:"class"`
	Counts []int64 `json:"counts"`
	Sum    float64 `json:"sum"`
}

// N returns the histogram's total observation count.
func (h HistSnap) N() int64 {
	var n int64
	for _, c := range h.Counts {
		n += c
	}
	return n
}

// ExemplarSnap is one delay bucket's span-ID reservoir in a snapshot.
type ExemplarSnap struct {
	// Class is the service class label.
	Class int `json:"class"`
	// Bucket indexes the fixed delay-bucket layout (overflow last).
	Bucket int `json:"bucket"`
	// Spans holds up to K sampled span IDs whose delays fell in the bucket.
	Spans []int64 `json:"spans"`
	// Seen counts every sampled observation the bucket received.
	Seen int64 `json:"seen"`
}

// Snapshot is the registry's full state at one simulated instant. All
// sections are sorted by (name, class), so identical collector states always
// serialise to identical bytes.
type Snapshot struct {
	// T is the simulated time the snapshot was taken.
	T float64 `json:"t"`
	// Seq is the 1-based snapshot index within the run.
	Seq int64 `json:"seq"`
	// Cell is the broadcast cell the snapshot belongs to in multi-cell runs
	// (0 and omitted otherwise). Excluded from the replay audit, which
	// reconstructs counters from a cell's own event stream.
	Cell int `json:"cell,omitempty"`
	// Counters, Gauges and Hists hold every live metric instance.
	Counters []CounterSnap `json:"counters,omitempty"`
	Gauges   []GaugeSnap   `json:"gauges,omitempty"`
	Hists    []HistSnap    `json:"hists,omitempty"`
	// Exemplars carries the span-ID reservoirs when exemplar sampling is
	// on; nil (and omitted) otherwise, so exemplar-off snapshots are
	// byte-identical to pre-exemplar ones. Excluded from the replay audit
	// like gauges: a replay collector has no reservoir RNG.
	Exemplars []ExemplarSnap `json:"exemplars,omitempty"`
}

// Counter returns the named counter's value in the snapshot, 0 when absent.
func (s *Snapshot) Counter(name string, class int) int64 {
	for _, c := range s.Counters {
		if c.Name == name && c.Class == class {
			return c.V
		}
	}
	return 0
}

// Gauge returns the named gauge's value, NaN when absent.
func (s *Snapshot) Gauge(name string, class int) float64 {
	for _, g := range s.Gauges {
		if g.Name == name && g.Class == class {
			return g.V
		}
	}
	return math.NaN()
}

// Hist returns the named histogram snapshot and whether it is present.
func (s *Snapshot) Hist(name string, class int) (HistSnap, bool) {
	for _, h := range s.Hists {
		if h.Name == name && h.Class == class {
			return h, true
		}
	}
	return HistSnap{}, false
}

// TakeSnapshot captures the registry's current state at simulated time t and
// invokes the OnSnapshot hook. The returned snapshot owns copies of every
// count, so later collection does not mutate it. Every histogram's counts
// and every reservoir's spans are carved from one []int64, each section
// capped at its own length so an append to one cannot run into the next.
func (c *Collector) TakeSnapshot(t float64) *Snapshot {
	c.snapshots++
	s := &Snapshot{T: t, Seq: c.snapshots, Cell: c.cell}
	n := 0
	for _, e := range c.reg.hists.order {
		n += len(e.m.counts)
	}
	for _, e := range c.exemplars.order {
		n += len(e.m.spans)
	}
	ints := make([]int64, n)
	// carve copies src into the next section of ints; empty gives nil.
	carve := func(src []int64) []int64 {
		if len(src) == 0 {
			return nil
		}
		dst := ints[:len(src):len(src)]
		ints = ints[len(src):]
		copy(dst, src)
		return dst
	}
	s.Counters = snapSection(c.reg.counters.order, func(e member[metricKey, Counter]) CounterSnap {
		return CounterSnap{Name: e.key.name, Class: e.key.class, V: e.m.Value()}
	})
	s.Gauges = snapSection(c.reg.gauges.order, func(e member[metricKey, Gauge]) GaugeSnap {
		return GaugeSnap{Name: e.key.name, Class: e.key.class, V: e.m.Value()}
	})
	s.Hists = snapSection(c.reg.hists.order, func(e member[metricKey, Histogram]) HistSnap {
		return HistSnap{Name: e.key.name, Class: e.key.class, Counts: carve(e.m.counts), Sum: e.m.Sum()}
	})
	s.Exemplars = snapSection(c.exemplars.order, func(e member[exemplarKey, exemplarRes]) ExemplarSnap {
		return ExemplarSnap{
			Class:  e.key.class,
			Bucket: e.key.bucket,
			Spans:  carve(e.m.spans),
			Seen:   e.m.seen,
		}
	})
	if c.onSnapshot != nil {
		c.onSnapshot(s)
	}
	return s
}

// snapSection copies a family's members, in key order, into one snapshot
// section sized to fit; an empty family gives a nil section.
func snapSection[K comparable, M, S any](order []member[K, M], snap func(member[K, M]) S) []S {
	if len(order) == 0 {
		return nil
	}
	out := make([]S, len(order))
	for i, e := range order {
		out[i] = snap(e)
	}
	return out
}

// DiffReplay compares the replay-auditable sections of two snapshots — the
// counters and histogram states — and returns a descriptive error on the
// first divergence. Gauges and exemplar reservoirs sample state a replay
// cannot reconstruct (live engine state, the reservoir RNG stream) and are
// deliberately excluded.
func DiffReplay(got, want *Snapshot) error {
	if got == nil || want == nil {
		return fmt.Errorf("telemetry: nil snapshot")
	}
	if len(got.Counters) != len(want.Counters) {
		return fmt.Errorf("telemetry: %d counters, want %d", len(got.Counters), len(want.Counters))
	}
	for i, g := range got.Counters {
		w := want.Counters[i]
		if g != w {
			return fmt.Errorf("telemetry: counter %d: %s{class=%d}=%d, want %s{class=%d}=%d",
				i, g.Name, g.Class, g.V, w.Name, w.Class, w.V)
		}
	}
	if len(got.Hists) != len(want.Hists) {
		return fmt.Errorf("telemetry: %d histograms, want %d", len(got.Hists), len(want.Hists))
	}
	for i, g := range got.Hists {
		w := want.Hists[i]
		if g.Name != w.Name || g.Class != w.Class {
			return fmt.Errorf("telemetry: histogram %d: %s{class=%d}, want %s{class=%d}",
				i, g.Name, g.Class, w.Name, w.Class)
		}
		if g.Sum != w.Sum {
			return fmt.Errorf("telemetry: histogram %s{class=%d}: sum %v, want %v", g.Name, g.Class, g.Sum, w.Sum)
		}
		if len(g.Counts) != len(w.Counts) {
			return fmt.Errorf("telemetry: histogram %s{class=%d}: %d buckets, want %d",
				g.Name, g.Class, len(g.Counts), len(w.Counts))
		}
		for b := range g.Counts {
			if g.Counts[b] != w.Counts[b] {
				return fmt.Errorf("telemetry: histogram %s{class=%d}: bucket %d count %d, want %d",
					g.Name, g.Class, b, g.Counts[b], w.Counts[b])
			}
		}
	}
	return nil
}
