// Package multichannel extends the hybrid scheduler from the paper's single
// broadcast channel to a multi-channel downlink — the extension the
// broadcast-allocation literature the paper cites (Lee & Lo, MONET 2003)
// studies. The total downlink capacity is held FIXED: with n channels each
// runs at rate 1/n, so transmitting an item of length L occupies one channel
// for n·L broadcast units. The push set is partitioned across the push
// channels (round-robin by rank) and each partition cycles independently;
// the pull channels share one importance-factor queue and each serves the
// best entry whenever it goes idle.
//
// The interesting question — reproduced by experiments.ExtChannels — is how
// to split a fixed number of channels between push and pull: more pull
// channels drain the on-demand queue in parallel but stretch every
// transmission (and the push cycle) by the rate penalty.
package multichannel

import (
	"fmt"
	"math"

	"hybridqos/internal/catalog"
	"hybridqos/internal/clients"
	"hybridqos/internal/core"
	"hybridqos/internal/event"
	"hybridqos/internal/pullqueue"
	"hybridqos/internal/rng"
	"hybridqos/internal/sched"
)

// Config parameterises a multi-channel run.
type Config struct {
	// Catalog is the item database (required).
	Catalog *catalog.Catalog
	// Classes is the service classification (required).
	Classes *clients.Classification
	// Lambda is the aggregate Poisson request rate.
	Lambda float64
	// Cutoff is K; items 1..K are pushed.
	Cutoff int
	// Alpha is the importance-factor mixing fraction.
	Alpha float64
	// PullPolicy optionally replaces the importance-factor policy (nil =
	// the paper's γ at Alpha).
	PullPolicy sched.PullPolicy
	// PushChannels and PullChannels split the downlink. PushChannels must
	// be ≥ 1 when Cutoff ≥ 1; PullChannels must be ≥ 1 when Cutoff < D.
	PushChannels, PullChannels int
	// Horizon is the simulated duration in broadcast units.
	Horizon float64
	// WarmupFraction of the horizon is discarded from statistics.
	WarmupFraction float64
	// Seed drives all randomness.
	Seed uint64
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.Catalog == nil {
		return fmt.Errorf("multichannel: nil catalog")
	}
	if c.Classes == nil {
		return fmt.Errorf("multichannel: nil classification")
	}
	if c.Lambda <= 0 || math.IsNaN(c.Lambda) || math.IsInf(c.Lambda, 0) {
		return fmt.Errorf("multichannel: invalid lambda %g", c.Lambda)
	}
	if c.Cutoff < 0 || c.Cutoff > c.Catalog.D() {
		return fmt.Errorf("multichannel: cutoff %d out of [0,%d]", c.Cutoff, c.Catalog.D())
	}
	if c.Alpha < 0 || c.Alpha > 1 || math.IsNaN(c.Alpha) {
		return fmt.Errorf("multichannel: alpha %g outside [0,1]", c.Alpha)
	}
	if c.PushChannels < 0 || c.PullChannels < 0 {
		return fmt.Errorf("multichannel: negative channel counts %d/%d", c.PushChannels, c.PullChannels)
	}
	if c.Cutoff >= 1 && c.PushChannels < 1 {
		return fmt.Errorf("multichannel: cutoff %d needs at least one push channel", c.Cutoff)
	}
	if c.Cutoff < c.Catalog.D() && c.PullChannels < 1 {
		return fmt.Errorf("multichannel: pull set non-empty but no pull channels")
	}
	if c.PushChannels+c.PullChannels < 1 {
		return fmt.Errorf("multichannel: no channels at all")
	}
	if c.Cutoff >= 1 && c.PushChannels > c.Cutoff {
		return fmt.Errorf("multichannel: %d push channels for %d push items", c.PushChannels, c.Cutoff)
	}
	if c.Horizon <= 0 || math.IsNaN(c.Horizon) || math.IsInf(c.Horizon, 0) {
		return fmt.Errorf("multichannel: invalid horizon %g", c.Horizon)
	}
	if c.WarmupFraction < 0 || c.WarmupFraction >= 1 || math.IsNaN(c.WarmupFraction) {
		return fmt.Errorf("multichannel: warmup fraction %g", c.WarmupFraction)
	}
	return nil
}

type pushWaiter struct {
	class   clients.Class
	arrival float64
}

// server is the multi-channel runtime.
type server struct {
	cfg       Config
	sim       *event.Simulator
	arrRng    *rng.Source
	itemRng   *rng.Source
	classRng  *rng.Source
	rate      float64 // per-channel rate = 1/(PushChannels+PullChannels)
	pushParts []*sched.FlatRoundRobinPartition
	selector  pullqueue.Queue
	waiters   map[int][]pushWaiter
	idlePull  int // number of pull channels currently idle
	warmupEnd float64
	metrics   *core.Metrics
}

// Run executes one multi-channel simulation. It fills the single-channel
// core.Metrics fields it has counterparts for: PerClass, PushBroadcasts and
// PullTransmissions (summed over all channels) and Horizon.
func Run(cfg Config) (*core.Metrics, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	root := rng.New(cfg.Seed)
	policy := cfg.PullPolicy
	if policy == nil {
		p, err := sched.NewImportanceFactor(cfg.Alpha)
		if err != nil {
			return nil, err
		}
		policy = p
	}
	selector, err := sched.NewSelector(policy)
	if err != nil {
		return nil, err
	}
	s := &server{
		cfg:       cfg,
		sim:       event.New(),
		arrRng:    root.Split("arrivals"),
		itemRng:   root.Split("items"),
		classRng:  root.Split("classes"),
		rate:      1 / float64(cfg.PushChannels+cfg.PullChannels),
		selector:  selector,
		waiters:   make(map[int][]pushWaiter),
		warmupEnd: cfg.Horizon * cfg.WarmupFraction,
		metrics:   &core.Metrics{Horizon: cfg.Horizon},
	}
	for c := 0; c < cfg.Classes.NumClasses(); c++ {
		s.metrics.PerClass = append(s.metrics.PerClass, &core.ClassMetrics{
			Class:  clients.Class(c),
			Weight: cfg.Classes.Weight(clients.Class(c)),
		})
	}
	// Partition the push set: channel p owns ranks p+1, p+1+P, ...
	if cfg.Cutoff >= 1 {
		for p := 0; p < cfg.PushChannels; p++ {
			var ranks []int
			for r := p + 1; r <= cfg.Cutoff; r += cfg.PushChannels {
				ranks = append(ranks, r)
			}
			part, err := sched.NewFlatRoundRobinPartition(ranks)
			if err != nil {
				return nil, err
			}
			s.pushParts = append(s.pushParts, part)
		}
	}

	s.scheduleNextArrival()
	for _, part := range s.pushParts {
		s.startPush(part)
	}
	s.idlePull = cfg.PullChannels
	s.sim.RunUntil(cfg.Horizon)
	return s.metrics, nil
}

func (s *server) scheduleNextArrival() {
	t := s.sim.Now() + s.arrRng.Exp(s.cfg.Lambda)
	if t > s.cfg.Horizon {
		return
	}
	s.sim.At(t, func() {
		s.handleArrival()
		s.scheduleNextArrival()
	})
}

func (s *server) handleArrival() {
	now := s.sim.Now()
	rank := s.cfg.Catalog.SampleRank(s.itemRng)
	class := s.cfg.Classes.SampleClass(s.classRng)
	if now >= s.warmupEnd {
		s.metrics.PerClass[class].Arrivals++
	}
	if rank <= s.cfg.Cutoff {
		s.waiters[rank] = append(s.waiters[rank], pushWaiter{class: class, arrival: now})
		return
	}
	s.selector.Add(pullqueue.Request{
		Item:     rank,
		Class:    class,
		Priority: s.cfg.Classes.Weight(class),
		Arrival:  now,
	}, s.cfg.Catalog.Length(rank))
	if s.idlePull > 0 {
		s.idlePull--
		s.servePull()
	}
}

// startPush runs one push channel's next broadcast; transmission time is
// L/rate on the fractional channel.
func (s *server) startPush(part *sched.FlatRoundRobinPartition) {
	item := part.Next()
	duration := s.cfg.Catalog.Length(item) / s.rate
	s.sim.After(duration, func() {
		now := s.sim.Now()
		s.metrics.PushBroadcasts++
		for _, w := range s.waiters[item] {
			s.record(w.class, w.arrival, now, true)
		}
		delete(s.waiters, item)
		s.startPush(part)
	})
}

// servePull serves the current best pull entry on a free pull channel.
func (s *server) servePull() {
	entry := s.selector.ExtractBest(s.sim.Now())
	if entry == nil {
		s.idlePull++
		return
	}
	duration := entry.Length / s.rate
	s.sim.After(duration, func() {
		now := s.sim.Now()
		s.metrics.PullTransmissions++
		for _, r := range entry.Requests {
			s.record(r.Class, r.Arrival, now, false)
		}
		s.servePull()
	})
}

func (s *server) record(class clients.Class, arrival, completion float64, push bool) {
	if arrival < s.warmupEnd {
		return
	}
	cm := s.metrics.PerClass[class]
	d := completion - arrival
	cm.Served++
	cm.Delay.Add(d)
	if push {
		cm.PushDelay.Add(d)
	} else {
		cm.PullDelay.Add(d)
	}
}
