package telemetry

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"hybridqos/internal/rng"
)

func TestCounterMonotonic(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	c.Add(-3) // ignored: counters are monotonic
	c.Add(0)
	if got := c.Value(); got != 5 {
		t.Fatalf("Value() = %d, want 5", got)
	}
}

func TestGaugeSetMax(t *testing.T) {
	var g Gauge
	g.Set(3)
	g.SetMax(2)
	if got := g.Value(); got != 3 {
		t.Fatalf("after SetMax(2): %g, want 3", got)
	}
	g.SetMax(7)
	if got := g.Value(); got != 7 {
		t.Fatalf("after SetMax(7): %g, want 7", got)
	}
	g.Set(1)
	if got := g.Value(); got != 1 {
		t.Fatalf("Set moves down: %g, want 1", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	// Exactly on a bound lands in that bound's bucket (inclusive upper bounds).
	h.Observe(0.0625)
	h.Observe(0.0625 / 2)
	h.Observe(1)
	h.Observe(1.5)
	h.Observe(1e9) // overflow
	h.Observe(math.NaN())
	if got := h.N(); got != 5 {
		t.Fatalf("N() = %d, want 5 (NaN ignored)", got)
	}
	counts := h.counts
	if len(counts) != len(delayBounds)+1 {
		t.Fatalf("len(counts) = %d, want %d", len(counts), len(delayBounds)+1)
	}
	if counts[0] != 2 {
		t.Errorf("bucket[0] = %d, want 2", counts[0])
	}
	if i := bucketIndex(1); counts[i] != 1 {
		t.Errorf("bucket ≤1 = %d, want 1", counts[i])
	}
	if i := bucketIndex(1.5); counts[i] != 1 {
		t.Errorf("bucket ≤2 = %d, want 1", counts[i])
	}
	if counts[len(counts)-1] != 1 {
		t.Errorf("overflow bucket = %d, want 1", counts[len(counts)-1])
	}
	if got, want := h.Sum(), 0.0625+0.03125+1+1.5+1e9; got != want {
		t.Errorf("Sum() = %v, want %v", got, want)
	}
}

func TestBucketIndexEdges(t *testing.T) {
	if i := bucketIndex(0); i != 0 {
		t.Errorf("bucketIndex(0) = %d, want 0", i)
	}
	last := delayBounds[len(delayBounds)-1]
	if i := bucketIndex(last); i != len(delayBounds)-1 {
		t.Errorf("bucketIndex(last bound) = %d, want %d", i, len(delayBounds)-1)
	}
	if i := bucketIndex(last * 2); i != len(delayBounds) {
		t.Errorf("bucketIndex(overflow) = %d, want %d", i, len(delayBounds))
	}
}

func TestNewRejectsBadCadence(t *testing.T) {
	for _, every := range []float64{-1, math.NaN(), math.Inf(1)} {
		if _, err := New(Options{SnapshotEvery: every}); err == nil {
			t.Errorf("New(SnapshotEvery=%g): no error", every)
		}
	}
	if _, err := New(Options{}); err != nil {
		t.Errorf("New(zero options): %v", err)
	}
}

// collectSample drives every hot-point method once and returns the collector.
func collectSample(t *testing.T) *Collector {
	t.Helper()
	c, err := New(Options{SnapshotEvery: 10})
	if err != nil {
		t.Fatal(err)
	}
	c.Arrival(0)
	c.Arrival(1)
	c.Served(0, 2.5, true)
	c.Served(1, 0.3, false)
	c.PushComplete()
	c.PullComplete()
	c.Blocked(1, 4)
	c.Corrupt(true)
	c.Corrupt(false)
	c.Retry(0)
	c.Shed(2)
	c.ObserveQueue(3, 8)
	c.ObserveQueue(2, 5)
	c.ObservePendingRetries(1)
	c.ObserveBandwidth(0, 2)
	return c
}

func TestSnapshotSortedAndQueryable(t *testing.T) {
	c := collectSample(t)
	s := c.TakeSnapshot(40)
	if s.T != 40 || s.Seq != 1 {
		t.Fatalf("T=%g Seq=%d, want 40, 1", s.T, s.Seq)
	}
	for i := 1; i < len(s.Counters); i++ {
		a, b := s.Counters[i-1], s.Counters[i]
		if a.Name > b.Name || (a.Name == b.Name && a.Class >= b.Class) {
			t.Fatalf("counters not sorted: %v before %v", a, b)
		}
	}
	if got := s.Counter(MetricArrivals, 0); got != 1 {
		t.Errorf("arrivals{0} = %d, want 1", got)
	}
	if got := s.Counter(MetricBlockedReqs, 1); got != 4 {
		t.Errorf("blocked_requests{1} = %d, want 4", got)
	}
	if got := s.Counter("no_such_metric", 0); got != 0 {
		t.Errorf("absent counter = %d, want 0", got)
	}
	if got := s.Gauge(MetricQueueRequests, ClassNone); got != 5 {
		t.Errorf("queue_requests = %g, want 5 (latest sample)", got)
	}
	if got := s.Gauge(MetricQueueRequestsMax, ClassNone); got != 8 {
		t.Errorf("queue_requests_max = %g, want 8 (peak)", got)
	}
	if got := s.Gauge("no_such_gauge", ClassNone); !math.IsNaN(got) {
		t.Errorf("absent gauge = %g, want NaN", got)
	}
	h, ok := s.Hist(MetricDelay, 0)
	if !ok || h.N() != 1 || h.Sum != 2.5 {
		t.Errorf("delay{0}: ok=%v n=%d sum=%g, want 1 obs of 2.5", ok, h.N(), h.Sum)
	}
	if _, ok := s.Hist(MetricDelay, 9); ok {
		t.Error("absent histogram reported present")
	}
	// Snapshots own their counts: mutating the collector afterwards must not
	// change the already-taken snapshot.
	c.Served(0, 1, true)
	if h2, _ := s.Hist(MetricDelay, 0); h2.N() != 1 {
		t.Error("snapshot aliases live histogram counts")
	}
	if s2 := c.TakeSnapshot(50); s2.Seq != 2 {
		t.Errorf("second snapshot Seq = %d, want 2", s2.Seq)
	}
}

// TestHandleCacheMatchesRegistry: cached handles and the uncached path for
// classes outside the cache resolve to the registry's own instances, so a
// snapshot reads the same whichever path an update took.
func TestHandleCacheMatchesRegistry(t *testing.T) {
	c, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	classes := []int{ClassNone, 0, handleSlots - 2, handleSlots - 1, 1000, -5}
	for _, class := range classes {
		c.Arrival(class)
		c.Arrival(class)
		c.Served(class, 3, false)
		c.ObserveBandwidth(class, 2)
	}
	s := c.TakeSnapshot(1)
	if len(s.Counters) != 2*len(classes) || len(s.Hists) != len(classes) || len(s.Gauges) != len(classes) {
		t.Fatalf("%d counters, %d histograms, %d gauges; want one instance per metric and class",
			len(s.Counters), len(s.Hists), len(s.Gauges))
	}
	for _, class := range classes {
		if got := s.Counter(MetricArrivals, class); got != 2 {
			t.Errorf("arrivals{%d} = %d, want 2", class, got)
		}
		if h, _ := s.Hist(MetricDelay, class); h.N() != 1 {
			t.Errorf("delay{%d} has %d observations, want 1", class, h.N())
		}
		if c.counter(cArrivals, class) != c.reg.Counter(MetricArrivals, class) {
			t.Errorf("arrivals{%d}: handle is not the registry's instance", class)
		}
	}
}

func TestOnSnapshotHook(t *testing.T) {
	var got []*Snapshot
	c, err := New(Options{SnapshotEvery: 5, OnSnapshot: func(s *Snapshot) { got = append(got, s) }})
	if err != nil {
		t.Fatal(err)
	}
	c.Arrival(0)
	s := c.TakeSnapshot(5)
	if len(got) != 1 || got[0] != s {
		t.Fatalf("hook saw %d snapshots, want the one returned", len(got))
	}
}

func TestSnapshotJSONDeterministic(t *testing.T) {
	mk := func() []byte {
		s := collectSample(t).TakeSnapshot(40)
		b, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := mk(), mk()
	if !bytes.Equal(a, b) {
		t.Fatalf("identical collector states serialise differently:\n%s\n%s", a, b)
	}
	var back Snapshot
	if err := json.Unmarshal(a, &back); err != nil {
		t.Fatalf("round-trip: %v", err)
	}
	if back.Counter(MetricArrivals, 1) != 1 {
		t.Error("round-trip lost counter value")
	}
}

func TestDiffReplay(t *testing.T) {
	a := collectSample(t).TakeSnapshot(40)
	b := collectSample(t).TakeSnapshot(40)
	if err := DiffReplay(a, b); err != nil {
		t.Fatalf("identical snapshots differ: %v", err)
	}
	// Gauges are excluded: wiping them must not trip the audit.
	b.Gauges = nil
	if err := DiffReplay(a, b); err != nil {
		t.Fatalf("gauge-only difference reported: %v", err)
	}
	b.Counters[0].V++
	if err := DiffReplay(a, b); err == nil {
		t.Fatal("counter divergence not reported")
	}
	b = collectSample(t).TakeSnapshot(40)
	b.Hists[0].Counts[0]++
	if err := DiffReplay(a, b); err == nil {
		t.Fatal("histogram bucket divergence not reported")
	}
	b = collectSample(t).TakeSnapshot(40)
	b.Hists[0].Sum += 1e-9
	if err := DiffReplay(a, b); err == nil {
		t.Fatal("histogram sum divergence not reported")
	}
	if err := DiffReplay(nil, a); err == nil {
		t.Fatal("nil snapshot accepted")
	}
}

func TestAppendProm(t *testing.T) {
	s := collectSample(t).TakeSnapshot(40)
	out := string(AppendProm(nil, s))
	for _, want := range []string{
		"hybridqos_sim_time 40\n",
		`hybridqos_arrivals_total{class="0"} 1`,
		`hybridqos_blocked_requests_total{class="1"} 4`,
		"hybridqos_blocked_total 1",
		"hybridqos_queue_requests 5",
		`hybridqos_delay_bucket{class="0",le="4"} 1`,
		`hybridqos_delay_bucket{class="0",le="+Inf"} 1`,
		`hybridqos_delay_sum{class="0"} 2.5`,
		`hybridqos_delay_count{class="0"} 1`,
		"# TYPE hybridqos_delay histogram\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}
	// One TYPE line per metric family, even with several class labels.
	if n := strings.Count(out, "# TYPE hybridqos_arrivals_total counter"); n != 1 {
		t.Errorf("%d TYPE lines for arrivals, want 1", n)
	}
	// Cumulative le buckets never decrease.
	if strings.Contains(out, "-") && strings.Contains(out, "le=\"-") {
		t.Error("negative le bound emitted")
	}
}

func TestBuildTimeline(t *testing.T) {
	c, err := New(Options{SnapshotEvery: 10})
	if err != nil {
		t.Fatal(err)
	}
	var snaps []*Snapshot
	c.Served(0, 1, true)
	c.Served(0, 1, true)
	c.ObserveQueue(1, 2)
	snaps = append(snaps, c.TakeSnapshot(10))
	c.Served(0, 8, false)
	c.Served(1, 0.25, false)
	c.ObserveQueue(3, 7)
	snaps = append(snaps, c.TakeSnapshot(20))
	// Third window: nothing served for class 1 → NaN percentile.
	c.Served(0, 2, true)
	snaps = append(snaps, c.TakeSnapshot(30))

	tl, err := BuildTimeline(snaps)
	if err != nil {
		t.Fatal(err)
	}
	if tl.Ticks() != 3 {
		t.Fatalf("Ticks() = %d, want 3", tl.Ticks())
	}
	if len(tl.PerClass) != 2 || tl.PerClass[0].Class != 0 || tl.PerClass[1].Class != 1 {
		t.Fatalf("PerClass = %+v, want classes [0 1]", tl.PerClass)
	}
	c0 := tl.PerClass[0]
	if got := []int64{c0.Served[0], c0.Served[1], c0.Served[2]}; got[0] != 2 || got[1] != 1 || got[2] != 1 {
		t.Errorf("class 0 served per window = %v, want [2 1 1]", got)
	}
	// Window 1 for class 0 holds two delays of exactly 1 → p50 within bucket (0.5, 1].
	if p := c0.P50[0]; p <= 0.5 || p > 1 {
		t.Errorf("class 0 window 0 p50 = %g, want in (0.5, 1]", p)
	}
	// Window 2 for class 0 holds one delay of 8 → all percentiles in (4, 8].
	if p := c0.P95[1]; p <= 4 || p > 8 {
		t.Errorf("class 0 window 1 p95 = %g, want in (4, 8]", p)
	}
	c1 := tl.PerClass[1]
	if !math.IsNaN(c1.P50[0]) {
		t.Errorf("class 1 window 0 p50 = %g, want NaN (no samples yet)", c1.P50[0])
	}
	if !math.IsNaN(c1.P50[2]) {
		t.Errorf("class 1 window 2 p50 = %g, want NaN (empty window)", c1.P50[2])
	}
	if tl.QueueRequests[1] != 7 {
		t.Errorf("QueueRequests[1] = %g, want 7", tl.QueueRequests[1])
	}

	if _, err := BuildTimeline(nil); err == nil {
		t.Error("empty stream accepted")
	}
	if _, err := BuildTimeline([]*Snapshot{snaps[1], snaps[0]}); err == nil {
		t.Error("backwards time accepted")
	}
	if _, err := BuildTimeline([]*Snapshot{nil}); err == nil {
		t.Error("nil snapshot accepted")
	}
}

func TestHistDeltaClamps(t *testing.T) {
	cur := HistSnap{Counts: []int64{5, 2, 0}}
	prev := HistSnap{Counts: []int64{3, 4}}
	got := histDelta(cur, prev)
	if got[0] != 2 || got[1] != 0 || got[2] != 0 {
		t.Fatalf("histDelta = %v, want [2 0 0]", got)
	}
	// First window: no previous snapshot.
	got = histDelta(cur, HistSnap{})
	if got[0] != 5 || got[1] != 2 {
		t.Fatalf("histDelta vs empty = %v, want [5 2 0]", got)
	}
}

// TestServingCounters exercises the serving-mode metric methods: the lazily
// created counters and gauges must land in snapshots under their own names.
func TestServingCounters(t *testing.T) {
	c, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	c.Expired(1)
	c.RateLimited(2)
	c.RateLimited(2)
	c.QuotaExceeded(0)
	c.Rejected(ClassNone)
	c.ObserveShedLevel(2)
	c.ObserveDraining(true)
	s := c.TakeSnapshot(5)
	for _, tc := range []struct {
		name  string
		class int
		want  int64
	}{
		{MetricExpired, 1, 1},
		{MetricRateLimited, 2, 2},
		{MetricQuotaExceeded, 0, 1},
		{MetricRejected, ClassNone, 1},
	} {
		if got := s.Counter(tc.name, tc.class); got != tc.want {
			t.Errorf("%s{class=%d} = %d, want %d", tc.name, tc.class, got, tc.want)
		}
	}
	if got := s.Gauge(MetricShedLevel, ClassNone); got != 2 {
		t.Errorf("shed_level = %g, want 2", got)
	}
	if got := s.Gauge(MetricDraining, ClassNone); got != 1 {
		t.Errorf("draining = %g, want 1", got)
	}
	c.ObserveDraining(false)
	if got := c.TakeSnapshot(6).Gauge(MetricDraining, ClassNone); got != 0 {
		t.Errorf("draining after reset = %g, want 0", got)
	}
}

// TestTakeSnapshotAllocs bounds a snapshot's allocations: the Snapshot,
// one slice per non-empty section and one []int64 that every histogram's
// counts and every exemplar reservoir's spans are carved from. Copying
// each into its own slice, as snapshots once did, cost one more
// allocation per histogram and per reservoir: 32 in all for this
// collector's 3 histograms and 23 reservoirs. The carved sections must
// still be copies, each capped at its own length.
func TestTakeSnapshotAllocs(t *testing.T) {
	c, err := New(Options{Exemplars: 2, ExemplarRNG: rng.New(3)})
	if err != nil {
		t.Fatal(err)
	}
	for class := 0; class < 3; class++ {
		for i := 0; i < 40; i++ {
			d := float64(i) / 4
			c.Arrival(class)
			c.Served(class, d, i%2 == 0)
			c.Exemplar(class, d, int64(100*class+i+1))
		}
	}
	c.ObserveQueue(4, 9)
	const ceiling = 6 // Snapshot, counters, gauges, hists, exemplars, ints
	if got := testing.AllocsPerRun(100, func() { c.TakeSnapshot(1) }); got > ceiling {
		t.Errorf("TakeSnapshot: %v allocations, ceiling %d", got, ceiling)
	}

	s := c.TakeSnapshot(2)
	if len(s.Hists) < 2 || len(s.Exemplars) < 2 {
		t.Fatalf("%d histograms and %d reservoirs, want at least 2 of each", len(s.Hists), len(s.Exemplars))
	}
	want, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	for i := range s.Hists {
		h := &s.Hists[i]
		if cap(h.Counts) != len(h.Counts) {
			t.Errorf("hist %d: counts cap %d, len %d", i, cap(h.Counts), len(h.Counts))
		}
		h.Counts = append(h.Counts, -1) // must reallocate, not run into the next section
	}
	for i := range s.Exemplars {
		x := &s.Exemplars[i]
		if cap(x.Spans) != len(x.Spans) {
			t.Errorf("reservoir %d: spans cap %d, len %d", i, cap(x.Spans), len(x.Spans))
		}
		x.Spans = append(x.Spans, -1)
	}
	for i := range s.Hists {
		s.Hists[i].Counts = s.Hists[i].Counts[:len(s.Hists[i].Counts)-1]
	}
	for i := range s.Exemplars {
		s.Exemplars[i].Spans = s.Exemplars[i].Spans[:len(s.Exemplars[i].Spans)-1]
	}
	c.Served(0, 0.5, false)
	c.Exemplar(0, 0.5, 999)
	got, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("snapshot changed after appends to its sections and later collection:\n got %s\nwant %s", got, want)
	}
}
