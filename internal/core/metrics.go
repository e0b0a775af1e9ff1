package core

import (
	"math"

	"hybridqos/internal/bandwidth"
	"hybridqos/internal/clients"
	"hybridqos/internal/stats"
)

// ClassMetrics aggregates one service class's outcomes.
type ClassMetrics struct {
	// Class identifies the service class.
	Class clients.Class
	// Weight is the class's priority weight q_c.
	Weight float64
	// Arrivals counts requests from the class (after warmup).
	Arrivals int64
	// Served counts satisfied requests.
	Served int64
	// Dropped counts requests lost to bandwidth blocking.
	Dropped int64
	// Expired counts requests whose deadline passed before their item's
	// transmission completed (RequestTTL mode).
	Expired int64
	// UplinkLost counts pull requests lost on the request back-channel
	// (first attempts and retries whose uplink budget ran out).
	UplinkLost int64
	// CacheHits counts requests served from the requesting client's own
	// cache (zero access time; included in Delay as 0).
	CacheHits int64
	// Retries counts client re-requests issued after corrupted pull
	// deliveries (lossy-downlink mode).
	Retries int64
	// Failed counts requests abandoned after downlink corruption exhausted
	// their retry budget.
	Failed int64
	// Shed counts requests refused by the class-aware overload admission
	// controller.
	Shed int64
	// HandoffsIn counts roaming requests accepted into this cell from
	// another cell (multi-cell runs; not warmup-filtered).
	HandoffsIn int64
	// HandoffsOut counts pending requests that roamed away from this cell.
	HandoffsOut int64
	// HandoffRefusals counts roaming requests this cell turned away: the
	// deadline expired in transit, admission control shed the request, or
	// the item is absent from the cell's catalog.
	HandoffRefusals int64
	// Delay accumulates access times (arrival → end of transmission).
	Delay stats.Welford
	// DelayHist holds the raw access-time samples for percentiles when the
	// run's Config.DelaySamples asked for them, and is nil otherwise, so a
	// reader that forgot to ask fails instead of reading no samples.
	DelayHist *stats.Histogram
	// PushDelay and PullDelay split Delay by the serving subsystem.
	PushDelay, PullDelay stats.Welford
}

// MeanDelay returns the class's mean access time.
func (cm *ClassMetrics) MeanDelay() float64 { return cm.Delay.Mean() }

// Cost returns the prioritised cost q_c · mean delay (§5.3).
func (cm *ClassMetrics) Cost() float64 { return cm.Weight * cm.Delay.Mean() }

// DropRate returns dropped/(served+dropped+expired), 0 when nothing
// completed.
func (cm *ClassMetrics) DropRate() float64 {
	total := cm.Served + cm.Dropped + cm.Expired
	if total == 0 {
		return 0
	}
	return float64(cm.Dropped) / float64(total)
}

// FailureRate returns failures/(served+failures) — the per-class
// probability a request that reached the server ended without delivery. 0
// when nothing completed. Failures are the class's terminal failure
// outcomes: bandwidth drops, deadline expiries, retry-budget exhaustion and
// admission shedding. First-attempt uplink losses are excluded — the
// back-channel is class-blind and its losses never reach the server's
// scheduling decisions.
func (cm *ClassMetrics) FailureRate() float64 {
	failures := cm.Dropped + cm.Expired + cm.Failed + cm.Shed
	total := cm.Served + failures
	if total == 0 {
		return 0
	}
	return float64(failures) / float64(total)
}

// Merge pools src into cm: every counter summed, every delay statistic
// merged. Class and Weight stay as they are. src's delay samples are
// dropped when cm keeps none; it panics when cm keeps them and src does not.
func (cm *ClassMetrics) Merge(src *ClassMetrics) {
	cm.Arrivals += src.Arrivals
	cm.Served += src.Served
	cm.Dropped += src.Dropped
	cm.Expired += src.Expired
	cm.UplinkLost += src.UplinkLost
	cm.CacheHits += src.CacheHits
	cm.Retries += src.Retries
	cm.Failed += src.Failed
	cm.Shed += src.Shed
	cm.HandoffsIn += src.HandoffsIn
	cm.HandoffsOut += src.HandoffsOut
	cm.HandoffRefusals += src.HandoffRefusals
	cm.Delay.Merge(&src.Delay)
	if cm.DelayHist != nil {
		if src.DelayHist == nil {
			panic("core: pooling delay samples from a run that kept none")
		}
		cm.DelayHist.Merge(src.DelayHist)
	}
	cm.PushDelay.Merge(&src.PushDelay)
	cm.PullDelay.Merge(&src.PullDelay)
}

// Metrics is the result of one run.
type Metrics struct {
	// PerClass holds one entry per service class, class 0 first.
	PerClass []*ClassMetrics
	// PushBroadcasts and PullTransmissions count completed transmissions,
	// including corrupted ones (raw channel throughput).
	PushBroadcasts, PullTransmissions int64
	// BlockedTransmissions counts pull entries dropped for bandwidth.
	BlockedTransmissions int64
	// CorruptedPushes and CorruptedPulls count transmissions lost on the
	// lossy downlink — the gap between raw throughput and goodput.
	CorruptedPushes, CorruptedPulls int64
	// QueueItems tracks the time-averaged number of distinct queued items.
	QueueItems stats.TimeWeighted
	// QueueRequests tracks the time-averaged pending request count.
	QueueRequests stats.TimeWeighted
	// Bandwidth holds per-class allocator statistics when enabled.
	Bandwidth []bandwidth.ClassStats
	// Horizon is the simulated duration.
	Horizon float64
	// Cutoff echoes the run's configured K (under the "none" push policy
	// the effective push set is empty regardless).
	Cutoff int
}

// OverallMeanDelay returns the request-weighted mean access time across
// classes; NaN when nothing was served.
func (m *Metrics) OverallMeanDelay() float64 {
	var sum float64
	var n int64
	for _, cm := range m.PerClass {
		if cm.Delay.N() > 0 {
			sum += cm.Delay.Mean() * float64(cm.Delay.N())
			n += cm.Delay.N()
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}

// TotalCost returns Σ_c q_c · mean delay_c, the quantity Figures 5–6
// minimise. Classes with no served requests contribute nothing.
func (m *Metrics) TotalCost() float64 {
	sum := 0.0
	for _, cm := range m.PerClass {
		if cm.Delay.N() > 0 {
			sum += cm.Cost()
		}
	}
	return sum
}

// TotalHandoffs sums accepted inbound handoffs across classes.
func (m *Metrics) TotalHandoffs() int64 {
	var n int64
	for _, cm := range m.PerClass {
		n += cm.HandoffsIn
	}
	return n
}

// TotalHandoffRefusals sums refused inbound handoffs across classes.
func (m *Metrics) TotalHandoffRefusals() int64 {
	var n int64
	for _, cm := range m.PerClass {
		n += cm.HandoffRefusals
	}
	return n
}

// PoolMetrics pools runs of one configuration (replications, or the cells
// of a cluster) in slice order: per-class outcomes through
// ClassMetrics.Merge, transmission counters summed. Class, Weight, Horizon
// and Cutoff come from runs[0]; the queue and bandwidth trackers are
// per-run quantities and stay zero. samples says whether and how each
// class's pooled delay histogram keeps the runs' samples, as
// Config.DelaySamples does for a run; nil pools none. It returns nil for no
// runs.
func PoolMetrics(samples *DelaySamples, runs []*Metrics) *Metrics {
	if len(runs) == 0 {
		return nil
	}
	pool := &Metrics{Horizon: runs[0].Horizon, Cutoff: runs[0].Cutoff}
	for _, first := range runs[0].PerClass {
		pool.PerClass = append(pool.PerClass, &ClassMetrics{
			Class: first.Class, Weight: first.Weight, DelayHist: samples.histogram(),
		})
	}
	for _, m := range runs {
		for c, cm := range pool.PerClass {
			cm.Merge(m.PerClass[c])
		}
		pool.PushBroadcasts += m.PushBroadcasts
		pool.PullTransmissions += m.PullTransmissions
		pool.BlockedTransmissions += m.BlockedTransmissions
		pool.CorruptedPushes += m.CorruptedPushes
		pool.CorruptedPulls += m.CorruptedPulls
	}
	return pool
}
