package main

import (
	"fmt"
	"math"
	"time"

	"hybridqos/internal/catalog"
	"hybridqos/internal/core"
	"hybridqos/internal/faults"
	"hybridqos/internal/policy"
	"hybridqos/internal/pullqueue"
	"hybridqos/internal/rng"
	"hybridqos/internal/sched"
	"hybridqos/internal/trace"
	"hybridqos/internal/workload"
)

// stopwatch accumulates the in-situ time of one layer's calls, each timed
// from outside by the wrapper that forwards it. Every timing is paired with
// an empty timing taken right after it, in the same cache and pipeline
// state, so the clock reads' own cost can be subtracted where it was paid.
type stopwatch struct {
	calls int64
	ns    int64 // Σ (call + one clock read)
	null  int64 // Σ (one clock read), measured straight after each call
}

// add closes a timing opened at t0.
func (s *stopwatch) add(t0 time.Time) {
	t1 := time.Now()
	t2 := time.Now()
	s.ns += int64(t1.Sub(t0))
	s.null += int64(t2.Sub(t1))
	s.calls++
}

// inWrapper is the whole wall time spent inside the wrapper: the calls plus
// the wrapper's three clock reads (ns holds one read per call, null another,
// and the read that opens each timing costs about as much).
func (s *stopwatch) inWrapper() float64 { return float64(s.ns + 2*s.null) }

// reads is the wall time of the wrapper's own clock reads alone.
func (s *stopwatch) reads() float64 { return float64(3 * s.null) }

// readNs is the mean cost of one clock read as measured beside the calls,
// 0 when the layer was never called.
func (s *stopwatch) readNs() float64 {
	if s.calls == 0 {
		return 0
	}
	return float64(s.null) / float64(s.calls)
}

// perCall is the mean self time of one call with the clock cost taken out,
// 0 when the layer was never called.
func (s *stopwatch) perCall() float64 {
	if s.calls == 0 {
		return 0
	}
	return math.Max(0, float64(s.ns-s.null)) / float64(s.calls)
}

// cellLayers holds the stopwatches of one traced simulation run.
type cellLayers struct {
	score, push, arrival, item, loss, sink stopwatch
}

// timedPull forwards a pull policy, timing every Score call.
type timedPull struct {
	inner sched.PullPolicy
	sw    *stopwatch
}

func (p timedPull) Name() string        { return p.inner.Name() }
func (p timedPull) TimeDependent() bool { return p.inner.TimeDependent() }
func (p timedPull) Score(e *pullqueue.Entry, now float64) float64 {
	t0 := time.Now()
	v := p.inner.Score(e, now)
	p.sw.add(t0)
	return v
}

// timedPush forwards a push scheduler, timing every Next call.
type timedPush struct {
	inner sched.PushScheduler
	sw    *stopwatch
}

func (p timedPush) Name() string { return p.inner.Name() }
func (p timedPush) Next() int {
	t0 := time.Now()
	v := p.inner.Next()
	p.sw.add(t0)
	return v
}

// timedArrivals forwards an arrival process, timing every Next call.
type timedArrivals struct {
	inner workload.ArrivalProcess
	sw    *stopwatch
}

func (a timedArrivals) Name() string  { return a.inner.Name() }
func (a timedArrivals) Rate() float64 { return a.inner.Rate() }
func (a timedArrivals) Next(r *rng.Source) (float64, int) {
	t0 := time.Now()
	gap, batch := a.inner.Next(r)
	a.sw.add(t0)
	return gap, batch
}

// timedItems forwards an item sampler, timing every SampleItem call.
type timedItems struct {
	inner workload.ItemSampler
	sw    *stopwatch
}

func (s timedItems) Name() string { return s.inner.Name() }
func (s timedItems) SampleItem(r *rng.Source, now float64) int {
	t0 := time.Now()
	v := s.inner.SampleItem(r, now)
	s.sw.add(t0)
	return v
}

// timedLoss forwards a loss model, timing every Corrupted call.
type timedLoss struct {
	inner faults.LossModel
	sw    *stopwatch
}

func (l timedLoss) Name() string      { return l.inner.Name() }
func (l timedLoss) MeanLoss() float64 { return l.inner.MeanLoss() }
func (l timedLoss) Corrupted(now float64, r *rng.Source) bool {
	t0 := time.Now()
	v := l.inner.Corrupted(now, r)
	l.sw.add(t0)
	return v
}

// timedTracer forwards a tracer, timing every Event call.
type timedTracer struct {
	inner trace.Tracer
	sw    *stopwatch
}

func (t timedTracer) Event(e trace.Event) {
	t0 := time.Now()
	t.inner.Event(e)
	t.sw.add(t0)
}

// instrument returns cfg with every injectable sim layer wrapped in a timing
// forwarder: the same policies and models the run would resolve on its own,
// so the trajectory is unchanged. A nil Tracer stays nil — attaching one
// would switch on event emission the untraced run never pays for.
func instrument(cfg core.Config, l *cellLayers) (core.Config, error) {
	params := policy.Params{
		Alpha: cfg.Alpha, TTL: cfg.RequestTTL, Disks: cfg.PushDisks,
		Catalog: cfg.Catalog, Cutoff: cfg.Cutoff,
	}
	pull, err := policy.NewPull(cfg.PullPolicyName, params)
	if err != nil {
		return cfg, fmt.Errorf("instrument: %w", err)
	}
	cfg.PullPolicy = timedPull{pull, &l.score}
	pushName := cfg.PushPolicyName
	cfg.PushScheduler = func(*catalog.Catalog, int) (sched.PushScheduler, error) {
		ps, err := policy.NewPush(pushName, params)
		if err != nil {
			return nil, err
		}
		return timedPush{ps, &l.push}, nil
	}
	arr := cfg.Arrivals
	if arr == nil {
		if arr, err = workload.NewPoisson(cfg.Lambda); err != nil {
			return cfg, fmt.Errorf("instrument: %w", err)
		}
	}
	cfg.Arrivals = timedArrivals{arr, &l.arrival}
	items := cfg.Items
	if items == nil {
		items = workload.StaticPopularity{Catalog: cfg.Catalog}
	}
	cfg.Items = timedItems{items, &l.item}
	if cfg.Loss != nil {
		cfg.Loss = timedLoss{cfg.Loss, &l.loss}
	}
	if cfg.Tracer != nil {
		cfg.Tracer = timedTracer{cfg.Tracer, &l.sink}
	}
	return cfg, nil
}
