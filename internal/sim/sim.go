// Package sim orchestrates simulation experiments: sweep points and
// independent replications are flattened into one deterministic work pool
// sized to the machine, per-class summaries carry confidence intervals, and
// the common-random-number seed discipline keeps sweep comparisons sharp.
package sim

import (
	"errors"
	"fmt"
	"math"

	"hybridqos/internal/clients"
	"hybridqos/internal/core"
	"hybridqos/internal/stats"
	"hybridqos/internal/workpool"
)

// ClassSummary aggregates one class's results across replications.
type ClassSummary struct {
	// Class is the service class.
	Class clients.Class
	// Weight is the class's priority weight.
	Weight float64
	// Delay collects the per-replication MEAN delays, so Delay.CI95()
	// yields a replication-based confidence interval.
	Delay stats.Welford
	// Cost collects per-replication prioritised costs.
	Cost stats.Welford
	// DropRate collects per-replication drop rates.
	DropRate stats.Welford
	// DelayHist pools every served request's delay across replications,
	// for percentile queries (P95 etc.).
	DelayHist stats.Histogram
	// Served, Dropped, Expired, UplinkLost and CacheHits are pooled counts
	// over all replications.
	Served, Dropped, Expired, UplinkLost, CacheHits int64
	// Retries, Failed and Shed pool the fault-layer counts: client
	// re-requests after corrupted deliveries, retry-budget exhaustions and
	// admission-control refusals.
	Retries, Failed, Shed int64
	// FailureRate collects per-replication failure rates (drops, expiries,
	// retry exhaustion and shedding over completed requests).
	FailureRate stats.Welford
}

// Summary is the replication-aggregated result of one configuration.
type Summary struct {
	// Config echoes the base configuration (Seed is the base seed).
	Config core.Config
	// Replications is the number of independent runs.
	Replications int
	// PerClass holds one summary per service class.
	PerClass []*ClassSummary
	// OverallDelay, TotalCost collect per-replication aggregates.
	OverallDelay, TotalCost stats.Welford
	// QueueItems collects per-replication mean distinct-item queue lengths.
	QueueItems stats.Welford
	// PullTransmissions, PushBroadcasts, Blocked pool counts.
	PullTransmissions, PushBroadcasts, Blocked int64
	// CorruptedPushes, CorruptedPulls pool downlink corruption counts.
	CorruptedPushes, CorruptedPulls int64
}

// MeanDelay returns class c's mean delay across replications.
func (s *Summary) MeanDelay(c clients.Class) float64 { return s.PerClass[c].Delay.Mean() }

// MeanCost returns class c's mean prioritised cost across replications.
func (s *Summary) MeanCost(c clients.Class) float64 { return s.PerClass[c].Cost.Mean() }

// SetWorkers overrides the shared work-pool size for subsequent runs and
// returns the previous override; n <= 0 restores automatic sizing
// (GOMAXPROCS−1, at least one). The override is process-global.
func SetWorkers(n int) (prev int) { return workpool.SetWorkers(n) }

// Workers reports the effective work-pool size used by sweeps and
// replications.
func Workers() int { return workpool.Workers() }

// PointError reports which sweep point a SweepConfigs failure occurred at.
// Err carries the underlying (replication-wrapped) error; the error text is
// Err's, so single-point callers can surface it unchanged while sweep
// wrappers prepend their point label.
type PointError struct {
	// Point is the index into the swept configuration slice.
	Point int
	// Err is the underlying error.
	Err error
}

func (e *PointError) Error() string { return e.Err.Error() }

// Unwrap exposes the underlying error to errors.Is/As.
func (e *PointError) Unwrap() error { return e.Err }

// RunReplications executes reps independent runs of cfg, varying only the
// seed (base seed + replication index), in parallel across the shared work
// pool. The returned summary is deterministic: the same cfg and reps always
// produce identical numbers regardless of scheduling order or worker count.
//
// Stateful per-run components (uplink channels, loss models, MMPP arrival
// processes, tracers, telemetry collectors) must NOT be shared across
// replications: construct fresh instances in perRun, which (when non-nil) is
// called with each replication's config, after the seed is set, before the
// run starts. The hook runs concurrently across replications and must only
// touch its own config.
func RunReplications(cfg core.Config, reps int, perRun func(rep int, c *core.Config) error) (*Summary, error) {
	sums, err := SweepConfigs([]core.Config{cfg}, reps, forEveryPoint(perRun))
	if err != nil {
		var pe *PointError
		if errors.As(err, &pe) {
			return nil, pe.Err
		}
		return nil, err
	}
	return sums[0], nil
}

// forEveryPoint adapts a per-replication hook to SweepConfigs' per-point form.
func forEveryPoint(perRun func(rep int, c *core.Config) error) func(point, rep int, c *core.Config) error {
	if perRun == nil {
		return nil
	}
	return func(_, rep int, c *core.Config) error { return perRun(rep, c) }
}

// SweepConfigs runs reps replications of every configuration, flattening the
// (point × replication) grid into the shared deterministic work pool, and
// returns one Summary per configuration in input order. perRun, when
// non-nil, is called with the point index, replication index and that
// replication's config (after the seed is set) before the run starts; it
// runs concurrently and must only touch its own config.
//
// Every (point, replication) pair is one job in the shared work pool;
// results land in index-addressed slots and are aggregated in input order,
// so the output is bit-identical whatever the worker count. Failures are
// reported as *PointError wrapping the lowest-indexed failing job's error.
func SweepConfigs(cfgs []core.Config, reps int, perRun func(point, rep int, c *core.Config) error) ([]*Summary, error) {
	if reps <= 0 {
		return nil, &PointError{Point: 0, Err: fmt.Errorf("sim: replications %d", reps)}
	}
	for p := range cfgs {
		if err := cfgs[p].Validate(); err != nil {
			return nil, &PointError{Point: p, Err: err}
		}
	}
	results := make([]*core.Metrics, len(cfgs)*reps)
	err := workpool.Run(len(results), func(i int) error {
		p, r := i/reps, i%reps
		repCfg := cfgs[p]
		repCfg.Seed = cfgs[p].Seed + uint64(r)
		if perRun != nil {
			if err := perRun(p, r, &repCfg); err != nil {
				return &PointError{Point: p, Err: fmt.Errorf("sim: replication %d: %w", r, err)}
			}
		}
		m, err := core.Run(repCfg)
		if err != nil {
			return &PointError{Point: p, Err: fmt.Errorf("sim: replication %d: %w", r, err)}
		}
		results[i] = m
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]*Summary, len(cfgs))
	for p := range cfgs {
		out[p] = aggregate(cfgs[p], reps, results[p*reps:(p+1)*reps])
	}
	return out, nil
}

// aggregate folds one point's per-replication metrics, in replication-index
// order, into a Summary.
func aggregate(cfg core.Config, reps int, results []*core.Metrics) *Summary {
	s := &Summary{Config: cfg, Replications: reps}
	for c := 0; c < cfg.Classes.NumClasses(); c++ {
		s.PerClass = append(s.PerClass, &ClassSummary{
			Class:  clients.Class(c),
			Weight: cfg.Classes.Weight(clients.Class(c)),
		})
	}
	for _, m := range results {
		for c, cm := range m.PerClass {
			cs := s.PerClass[c]
			if cm.Delay.N() > 0 {
				cs.Delay.Add(cm.Delay.Mean())
				cs.Cost.Add(cm.Cost())
			}
			cs.DelayHist.Merge(&cm.DelayHist)
			cs.DropRate.Add(cm.DropRate())
			cs.Served += cm.Served
			cs.Dropped += cm.Dropped
			cs.Expired += cm.Expired
			cs.UplinkLost += cm.UplinkLost
			cs.CacheHits += cm.CacheHits
			cs.Retries += cm.Retries
			cs.Failed += cm.Failed
			cs.Shed += cm.Shed
			cs.FailureRate.Add(cm.FailureRate())
		}
		if v := m.OverallMeanDelay(); !math.IsNaN(v) {
			s.OverallDelay.Add(v)
		}
		s.TotalCost.Add(m.TotalCost())
		if v := m.QueueItems.Mean(); !math.IsNaN(v) {
			s.QueueItems.Add(v)
		}
		s.PullTransmissions += m.PullTransmissions
		s.PushBroadcasts += m.PushBroadcasts
		s.Blocked += m.BlockedTransmissions
		s.CorruptedPushes += m.CorruptedPushes
		s.CorruptedPulls += m.CorruptedPulls
	}
	return s
}

// SweepPoint is one swept configuration's summary.
type SweepPoint struct {
	// K is the cutoff.
	K int
	// Summary is the replication-aggregated result.
	Summary *Summary
}

// SweepCutoffs runs reps replications at each cutoff, reusing the base seed
// so the cutoffs are compared under common random numbers. All (cutoff ×
// replication) pairs share the deterministic work pool; perRun is
// RunReplications' per-replication hook.
func SweepCutoffs(cfg core.Config, cutoffs []int, reps int, perRun func(rep int, c *core.Config) error) ([]SweepPoint, error) {
	if len(cutoffs) == 0 {
		return nil, fmt.Errorf("sim: no cutoffs")
	}
	cfgs := make([]core.Config, len(cutoffs))
	for i, k := range cutoffs {
		cfgs[i] = cfg
		cfgs[i].Cutoff = k
	}
	sums, err := SweepConfigs(cfgs, reps, forEveryPoint(perRun))
	if err != nil {
		var pe *PointError
		if errors.As(err, &pe) {
			return nil, fmt.Errorf("sim: cutoff %d: %w", cutoffs[pe.Point], pe.Err)
		}
		return nil, err
	}
	out := make([]SweepPoint, len(cutoffs))
	for i, k := range cutoffs {
		out[i] = SweepPoint{K: k, Summary: sums[i]}
	}
	return out, nil
}

// OptimalByTotalCost returns the sweep point with the lowest mean total
// prioritised cost.
func OptimalByTotalCost(points []SweepPoint) (SweepPoint, error) {
	return optimal(points, func(p SweepPoint) float64 { return p.Summary.TotalCost.Mean() })
}

// OptimalByOverallDelay returns the sweep point with the lowest mean overall
// delay.
func OptimalByOverallDelay(points []SweepPoint) (SweepPoint, error) {
	return optimal(points, func(p SweepPoint) float64 { return p.Summary.OverallDelay.Mean() })
}

func optimal(points []SweepPoint, value func(SweepPoint) float64) (SweepPoint, error) {
	if len(points) == 0 {
		return SweepPoint{}, fmt.Errorf("sim: no sweep points")
	}
	best := points[0]
	bestVal := value(best)
	for _, p := range points[1:] {
		v := value(p)
		if math.IsNaN(bestVal) || (!math.IsNaN(v) && v < bestVal) {
			best, bestVal = p, v
		}
	}
	return best, nil
}
