package telemetry

import (
	"fmt"
	"math"
	"sort"

	"hybridqos/internal/stats"
)

// ClassTimeline is one service class's per-snapshot-window delay series.
// Each index corresponds to one snapshot tick; percentiles are computed over
// the window since the PREVIOUS snapshot (bucket-count deltas), so the series
// shows queue dynamics over time rather than a slowly converging cumulative
// view. Windows with no served requests hold NaN.
type ClassTimeline struct {
	// Class is the service class index.
	Class int
	// P50, P95 and P99 are the estimated delay percentiles per window.
	P50, P95, P99 []float64
	// Served is the number of requests served in each window.
	Served []int64
}

// Timeline is the time-series view of a snapshot stream.
type Timeline struct {
	// T holds the snapshot times.
	T []float64
	// QueueItems and QueueRequests are the sampled pull-queue depths.
	QueueItems, QueueRequests []float64
	// PerClass holds one delay timeline per class, sorted by class index.
	PerClass []ClassTimeline
}

// Ticks returns the number of snapshot ticks.
func (tl *Timeline) Ticks() int { return len(tl.T) }

// BuildTimeline lowers an ordered snapshot stream (as produced by one run's
// periodic KindSnapshot events, oldest first) to per-window time series. It
// errors on an empty stream or on snapshots whose times go backwards.
func BuildTimeline(snaps []*Snapshot) (*Timeline, error) {
	if len(snaps) == 0 {
		return nil, fmt.Errorf("telemetry: no snapshots")
	}
	classSet := make(map[int]bool)
	for i, s := range snaps {
		if s == nil {
			return nil, fmt.Errorf("telemetry: snapshot %d is nil", i)
		}
		if i > 0 && s.T < snaps[i-1].T {
			return nil, fmt.Errorf("telemetry: snapshot %d at t=%g before t=%g", i, s.T, snaps[i-1].T)
		}
		for _, h := range s.Hists {
			if h.Name == MetricDelay {
				classSet[h.Class] = true
			}
		}
	}
	classes := make([]int, 0, len(classSet))
	for c := range classSet {
		classes = append(classes, c)
	}
	sort.Ints(classes)

	tl := &Timeline{}
	for _, c := range classes {
		tl.PerClass = append(tl.PerClass, ClassTimeline{Class: c})
	}
	prev := make(map[int]HistSnap, len(classes))
	for _, s := range snaps {
		tl.T = append(tl.T, s.T)
		tl.QueueItems = append(tl.QueueItems, s.Gauge(MetricQueueItems, ClassNone))
		tl.QueueRequests = append(tl.QueueRequests, s.Gauge(MetricQueueRequests, ClassNone))
		for i, c := range classes {
			h, _ := s.Hist(MetricDelay, c)
			window := histDelta(h, prev[c])
			ct := &tl.PerClass[i]
			ct.P50 = append(ct.P50, stats.BucketQuantile(50, delayBounds, window))
			ct.P95 = append(ct.P95, stats.BucketQuantile(95, delayBounds, window))
			ct.P99 = append(ct.P99, stats.BucketQuantile(99, delayBounds, window))
			var n int64
			for _, v := range window {
				n += v
			}
			ct.Served = append(ct.Served, n)
			prev[c] = h
		}
	}
	return tl, nil
}

// histDelta returns cur−prev per bucket, clamped at zero (counters are
// monotonic; a negative delta means the stream mixed runs and is treated as
// an empty window rather than a panic).
func histDelta(cur, prev HistSnap) []int64 {
	out := make([]int64, len(cur.Counts))
	for i, v := range cur.Counts {
		if i < len(prev.Counts) {
			v -= prev.Counts[i]
		}
		if v > 0 {
			out[i] = v
		}
	}
	return out
}

// CumulativeQuantile estimates the q-th percentile of a snapshot's full
// delay histogram for one class (NaN when the class has no samples) —
// the run-so-far view, as opposed to BuildTimeline's per-window series.
//
//lint:allow deadcode pending deletion with its only test, TestCumulativeQuantile (see ROADMAP)
func CumulativeQuantile(s *Snapshot, class int, q float64) float64 {
	h, ok := s.Hist(MetricDelay, class)
	if !ok {
		return math.NaN()
	}
	return stats.BucketQuantile(q, delayBounds, h.Counts)
}
