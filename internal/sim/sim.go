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

// ClassSummary collects one class's per-replication rates and means; the
// pooled counts and delay samples are in Summary.Pooled.
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
	// Pooled pools every replication's metrics (core.PoolMetrics): outcome
	// and transmission counts summed and, when Config.DelaySamples asks for
	// them, every replication's delay samples kept for percentile queries.
	Pooled *core.Metrics
}

// MeanDelay returns class c's mean delay across replications.
func (s *Summary) MeanDelay(c clients.Class) float64 { return s.PerClass[c].Delay.Mean() }

// MeanCost returns class c's mean prioritised cost across replications.
func (s *Summary) MeanCost(c clients.Class) float64 { return s.PerClass[c].Cost.Mean() }

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
// cfg's sinks (Tracer, Telemetry) see replication 0 only; see SweepConfigs.
func RunReplications(cfg core.Config, reps int) (*Summary, error) {
	sums, err := SweepConfigs([]core.Config{cfg}, reps)
	if err != nil {
		var pe *PointError
		if errors.As(err, &pe) {
			return nil, pe.Err
		}
		return nil, err
	}
	return sums[0], nil
}

// SweepConfigs runs reps replications of every configuration, flattening the
// (point × replication) grid into the shared deterministic work pool, and
// returns one Summary per configuration in input order. Replication r of a
// point runs with seed Seed+r; every run starts its own loss chain, token
// bucket and MMPP (core copies them), so the points may share those.
//
// Sinks (Tracer, Telemetry) go to job 0 only — point 0, replication 0,
// with cfgs[0]'s sinks — and every other job runs without them: a trace or
// snapshot stream is one trajectory, read from one run, and no second run
// writes to it concurrently. Cross-replication figures come from the
// Summaries.
//
// Every (point, replication) pair is one job in the shared work pool;
// results land in index-addressed slots and are aggregated in input order,
// so the output is bit-identical whatever the worker count. Failures are
// reported as *PointError wrapping the lowest-indexed failing job's error.
func SweepConfigs(cfgs []core.Config, reps int) ([]*Summary, error) {
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
		if i > 0 {
			repCfg.Tracer, repCfg.Telemetry = nil, nil
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
	// The pool keeps every sample the replications kept: a bounded
	// replication's reservoir is not thinned again.
	var samples *core.DelaySamples
	if cfg.DelaySamples != nil {
		samples = &core.DelaySamples{}
	}
	s := &Summary{Config: cfg, Replications: reps, Pooled: core.PoolMetrics(samples, results)}
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
			cs.DropRate.Add(cm.DropRate())
			cs.FailureRate.Add(cm.FailureRate())
		}
		if v := m.OverallMeanDelay(); !math.IsNaN(v) {
			s.OverallDelay.Add(v)
		}
		s.TotalCost.Add(m.TotalCost())
		if v := m.QueueItems.Mean(); !math.IsNaN(v) {
			s.QueueItems.Add(v)
		}
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
// replication) pairs share the deterministic work pool; cfg's sinks see the
// first cutoff's replication 0 only (see SweepConfigs).
func SweepCutoffs(cfg core.Config, cutoffs []int, reps int) ([]SweepPoint, error) {
	if len(cutoffs) == 0 {
		return nil, fmt.Errorf("sim: no cutoffs")
	}
	cfgs := make([]core.Config, len(cutoffs))
	for i, k := range cutoffs {
		cfgs[i] = cfg
		cfgs[i].Cutoff = k
	}
	sums, err := SweepConfigs(cfgs, reps)
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
