// Package core implements the paper's contribution: the hybrid
// push/pull scheduling server with priority-based service classification
// (section 3, Figure 1).
//
// The package is split into an *engine* (this file: the discrete-event
// machinery, request routing, metrics) and pluggable *policies* resolved by
// name through internal/policy: a push scheduler orders the broadcast cycle
// of items 1..K, and a pull policy scores the on-demand queue for items
// K+1..D. With the default policies the server reproduces the paper: items
// 1..K are broadcast in a flat round-robin; after every push transmission,
// if the pull queue is non-empty the server extracts the entry with the
// maximum importance factor γ_i = α·S_i + (1−α)·Q_i, reserves bandwidth
// from the pool of the entry's governing (highest-priority requesting)
// class, and either transmits it — satisfying every pending request for the
// item at once — or, when the Poisson bandwidth demand exceeds the class's
// available bandwidth, drops the item and all its pending requests
// (blocking).
//
// The implementation is a deterministic discrete-event simulation: a single
// seed reproduces the full event trajectory, whatever the policies.
package core

import (
	"hybridqos/internal/admission"
	"hybridqos/internal/bandwidth"
	"hybridqos/internal/cache"
	"hybridqos/internal/clients"
	"hybridqos/internal/clock"
	"hybridqos/internal/faults"
	"hybridqos/internal/pullqueue"
	"hybridqos/internal/rng"
	"hybridqos/internal/sched"
	"hybridqos/internal/telemetry"
	"hybridqos/internal/trace"
	"hybridqos/internal/uplink"
	"hybridqos/internal/workload"
)

// pushWaiter is a client waiting for a push item's next broadcast.
type pushWaiter struct {
	class   clients.Class
	arrival float64
	// joined is when the waiter registered at THIS cell: the arrival for
	// local requests, the re-attach time for injected roamers (whose
	// arrival keeps the origin-cell value for deadline accounting). Span
	// service segments start no earlier than joined.
	joined float64
	client int // −1 when client identity is not tracked
	// tag identifies the request exactly as pullqueue.Request.Tag does: a
	// span ID (0 when unsampled) for generated requests, a negative arena
	// handle for submitted ones (arena.go).
	tag int64
}

// Server is the paper's one slot loop: the broadcast cycle, the pull queue
// and every request's path to its terminal outcome. All time access goes
// through the clock.Clock interface. New builds a simulation instance on its
// own Virtual clock, fed by generated arrivals up to a horizon; NewServing
// (serve.go) mounts the same loop on a given clock — Wall in cmd/qosd —
// fed by Submit. The two differ only in where requests come from: the
// shared slot functions read the difference from each request's tag, never
// from a mode.
type Server struct {
	cfg      Config
	cutoff   int         // effective K: 0 under the "none" push policy
	clk      clock.Clock // the engine's only time source (s.vclk, as an interface)
	vclk     *clock.Virtual
	arrRng   *rng.Source
	itemRng  *rng.Source
	classRng *rng.Source

	pushSched sched.PushScheduler
	selector  pullqueue.Queue
	alloc     *bandwidth.Allocator
	arrivals  workload.ArrivalProcess
	items     workload.ItemSampler
	tracer    trace.Tracer
	tele      *telemetry.Collector
	up        uplink.Channel
	uplinkRng *rng.Source
	caches    *cache.Population
	clientRng *rng.Source
	txCounts  []int64 // per-rank transmission counts (PIX frequency)
	txTotal   int64
	// pushWaiters is indexed by push rank (1..cutoff); slot 0 is unused.
	// Slices are reset to length 0 on drain, so waiter capacity is reused
	// across broadcast cycles instead of reallocated per arrival burst.
	pushWaiters [][]pushWaiter

	loss           faults.LossModel
	lossRng        *rng.Source
	retryRng       *rng.Source
	shedder        *faults.Shedder
	pendingRetries int // re-requests booked but not yet delivered

	// emitOn gates trace-event construction on the hot path: false when the
	// tracer is the no-op sink and telemetry is off, where emit would copy a
	// large Event struct per call only to discard it. Guarded sites are
	// behavior-identical because emit has no side effects in that state.
	emitOn bool

	// Span provenance (nil spanRng = disabled; the zero cost of spans-off
	// is a single nil check on the hot path).
	spanRng    *rng.Source
	spanRates  []float64 // per-class sampling probability, defaults filled
	spanIDBase int64     // cell namespace offset for minted span IDs
	spanNext   int64     // last minted span sequence number

	// Cached event handlers. The arrival chain, the push transmission and
	// the pull transmission are each single-outstanding (the downlink is
	// serial, and the arrival chain books its next arrival only after
	// consuming the last, or runs it in place without booking when it is
	// the loop's next event), so one reused closure per kind — with its
	// pending state in the fields below — replaces a fresh capturing
	// closure per event. This is what the //qos:hotpath annotations hold
	// the scheduling sites to.
	arrivalH  func()
	pushH     func()
	pullH     func()
	nextBatch int              // batch size for the booked arrival event, if one is booked
	pushItem  int              // item of the in-flight push transmission
	pullEntry *pullqueue.Entry // entry of the in-flight pull transmission
	pullGrant *bandwidth.Grant // its bandwidth grant, nil without an allocator

	// txTok is the in-flight transmission's completion event, cancelled
	// when a drain quiesces the loop (serve.go).
	txTok clock.Token

	warmupEnd float64
	metrics   *Metrics
	idle      bool // only reachable when the effective cutoff is 0

	// Serving state (serve.go); ctl is nil in a simulation instance.
	ctl       *admission.Controller
	reqs      reqArena // submitted requests, addressed by negative tags
	pending   int      // submitted, admitted, not yet terminal
	draining  bool
	onDrained func()
}

// New builds a Server from the configuration.
func New(cfg Config) (*Server, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	vclk := clock.NewVirtual()
	s, err := newServer(cfg, vclk)
	if err != nil {
		return nil, err
	}
	s.vclk = vclk
	s.warmupEnd = cfg.Horizon * cfg.WarmupFraction
	s.arrivals = cfg.Arrivals
	if s.arrivals == nil {
		p, err := workload.NewPoisson(cfg.Lambda)
		if err != nil {
			return nil, err
		}
		s.arrivals = p
	}
	s.items = cfg.Items
	if s.items == nil {
		s.items = workload.StaticPopularity{Catalog: cfg.Catalog}
	}
	return s, nil
}

// newServer builds the slot loop shared by New and NewServing on clk:
// policies, RNG streams (always split in the same order, so a simulation's
// draws never depend on which constructor ran), tracer, telemetry, handlers
// and metrics. The arrival source is the caller's.
func newServer(cfg Config, clk clock.Clock) (*Server, error) {
	root := rng.New(cfg.Seed)
	s := &Server{
		cfg:      cfg,
		cutoff:   cfg.Cutoff,
		clk:      clk,
		arrRng:   root.Split("arrivals"),
		itemRng:  root.Split("items"),
		classRng: root.Split("classes"),
	}

	pull, err := cfg.buildPullPolicy()
	if err != nil {
		return nil, err
	}
	sel, err := sched.NewSelector(pull)
	if err != nil {
		return nil, err
	}
	s.selector = sel

	if cfg.Cutoff > 0 {
		ps, err := cfg.buildPushScheduler()
		if err != nil {
			return nil, err
		}
		if _, none := ps.(sched.NoPush); none {
			// Pure-pull degenerate: the push set is treated as empty and
			// every request is routed through the pull queue.
			s.cutoff = 0
		} else {
			s.pushSched = ps
		}
	}

	if cfg.Bandwidth != nil {
		a, err := bandwidth.New(*cfg.Bandwidth, root.Split("bandwidth"))
		if err != nil {
			return nil, err
		}
		s.alloc = a
	}

	s.tracer = cfg.Tracer
	if s.tracer == nil {
		s.tracer = trace.Nop{}
	}
	s.tele = cfg.Telemetry
	_, nop := s.tracer.(trace.Nop)
	s.emitOn = !nop || s.tele != nil
	s.up = cfg.Uplink
	if s.up == nil {
		s.up = uplink.Unlimited{}
	}
	s.uplinkRng = root.Split("uplink")
	if cfg.ClientCache != nil {
		pop, err := cache.NewPopulation(cfg.ClientCache.NumClients, cfg.ClientCache.Capacity, cfg.ClientCache.Policy)
		if err != nil {
			return nil, err
		}
		s.caches = pop
		s.clientRng = root.Split("clients")
		s.txCounts = make([]int64, cfg.Catalog.D()+1)
	}
	// Fault-layer streams are split last so enabling the layer never
	// perturbs the streams above — a run with Loss nil (or a 0-probability
	// model) is bit-identical to one without the fault layer at all.
	s.loss = cfg.Loss
	s.lossRng = root.Split("faults-loss")
	s.retryRng = root.Split("faults-retry")
	if cfg.Shed != nil {
		sh, err := faults.NewShedder(*cfg.Shed, cfg.Classes.NumClasses())
		if err != nil {
			return nil, err
		}
		s.shedder = sh
	}
	// The span sampling stream is split after every other stream for the
	// same reason the fault streams come after the workload streams:
	// enabling span provenance must never perturb the draws above, so a
	// spans-off run is bit-identical to a build without the span layer and
	// a spans-on run is trajectory-identical (extra events, same draws).
	if cfg.Spans != nil {
		s.spanRng = root.Split("spans")
		s.spanIDBase = cfg.Spans.IDBase
		s.spanRates = make([]float64, cfg.Classes.NumClasses())
		for c := range s.spanRates {
			if c < len(cfg.Spans.Rates) {
				s.spanRates[c] = cfg.Spans.Rates[c]
			} else {
				s.spanRates[c] = 1
			}
		}
	}

	// The waiter table is indexed by push rank; ranks run 1..cutoff, using
	// the effective cutoff (a "none" push scheduler zeroes it above).
	s.pushWaiters = make([][]pushWaiter, s.cutoff+1)

	// Build the reused handlers once; see the field comments for why each
	// kind is single-outstanding and therefore safe to share state through
	// the Server fields.
	s.arrivalH = func() {
		for i := 0; i < s.nextBatch; i++ {
			s.handleArrival()
		}
		s.scheduleNextArrival()
	}
	s.pushH = func() { s.completePush(s.pushItem) }
	s.pullH = func() {
		entry, grant := s.pullEntry, s.pullGrant
		s.pullEntry, s.pullGrant = nil, nil
		s.completePull(entry, grant)
	}

	s.metrics = &Metrics{Horizon: cfg.Horizon, Cutoff: cfg.Cutoff}
	for c := 0; c < cfg.Classes.NumClasses(); c++ {
		cm := &ClassMetrics{
			Class:  clients.Class(c),
			Weight: cfg.Classes.Weight(clients.Class(c)),
		}
		if cfg.DelayHistBound > 0 {
			cm.DelayHist.SetBound(cfg.DelayHistBound)
		}
		s.metrics.PerClass = append(s.metrics.PerClass, cm)
	}
	return s, nil
}

// emit routes one trace event to both consumers: the configured tracer and
// — via trace.Apply, the single definition of the event→metric mapping —
// the telemetry collector. Keeping both behind one call site is what makes
// the replay audit exact: the collector sees events in precisely the order
// the trace records them.
//
//qos:hotpath
func (s *Server) emit(e trace.Event) {
	s.tracer.Event(e)
	trace.Apply(s.tele, e)
}

// observeBandwidth samples every class's bandwidth occupancy
// (capacity − available) into the telemetry gauges.
func (s *Server) observeBandwidth() {
	if s.tele == nil || s.alloc == nil {
		return
	}
	for c := 0; c < s.alloc.NumClasses(); c++ {
		cl := clients.Class(c)
		s.tele.ObserveBandwidth(c, s.alloc.Capacity(cl)-s.alloc.Available(cl))
	}
}

// observePendingRetries samples the outstanding-retry count into telemetry.
func (s *Server) observePendingRetries() {
	if s.tele != nil {
		s.tele.ObservePendingRetries(s.pendingRetries)
	}
}

// scheduleSnapshot books the k-th periodic telemetry snapshot (1-based) at
// simulated time k·every. Snapshots are chained rather than pre-booked so
// the event heap stays small. The callback only reads simulation state —
// no RNG draws, no queue mutations — so a telemetry-enabled run follows a
// trajectory bit-identical to the same run without it.
func (s *Server) scheduleSnapshot(k int64) {
	t := float64(k) * s.tele.SnapshotEvery()
	if t > s.cfg.Horizon {
		return
	}
	s.clk.At(t, func() {
		s.emit(trace.Event{T: t, Kind: trace.KindSnapshot, Class: -1, Snap: s.tele.TakeSnapshot(t)})
		s.scheduleSnapshot(k + 1)
	})
}

// Run executes the simulation to its horizon and returns the metrics.
// Run may be called once per Server. It is exactly Start + AdvanceTo(horizon)
// + Finish — the cell lifecycle (cell.go) with no intermediate stops — so a
// single-cell run is bit-identical whichever way it is driven.
func (s *Server) Run() *Metrics {
	s.Start()
	s.AdvanceTo(s.cfg.Horizon)
	return s.Finish()
}

// observeQueue snapshots queue sizes into the time-weighted trackers and the
// telemetry gauges.
//
//qos:hotpath
func (s *Server) observeQueue() {
	now := s.clk.Now()
	items, requests := s.selector.Items(), s.selector.Requests()
	s.metrics.QueueItems.Observe(now, float64(items))
	s.metrics.QueueRequests.Observe(now, float64(requests))
	if s.tele != nil {
		s.tele.ObserveQueue(items, requests)
	}
}

// scheduleNextArrival draws the next arrival event from the configured
// process; events beyond the horizon are simply never scheduled (RunUntil
// would cut them anyway). When the arrival would be the loop's next event
// anyway, TryAdvance moves the clock to it and the batch runs here in
// place, with no queue round trip; otherwise it books the reused arrival
// handler. The draws and the fire order are the same either way. The chain
// is single-outstanding — at most one arrival is booked, and only once the
// loop has consumed the last one — so parking the batch size in the field
// is race-free.
//
//qos:hotpath
func (s *Server) scheduleNextArrival() {
	for {
		gap, batch := s.arrivals.Next(s.arrRng)
		t := s.clk.Now() + gap
		if t > s.cfg.Horizon {
			return
		}
		if !s.vclk.TryAdvance(t) {
			s.nextBatch = batch
			s.clk.At(t, s.arrivalH)
			return
		}
		for i := 0; i < batch; i++ {
			s.handleArrival()
		}
	}
}

// sampleSpan makes the head-based span sampling decision for one arriving
// request and mints its globally unique span ID, or returns 0 (unsampled or
// spans disabled). The draw comes from the dedicated span stream, so the
// decision never perturbs workload or fault draws.
//
//qos:hotpath
func (s *Server) sampleSpan(class clients.Class) int64 {
	if s.spanRng == nil {
		return 0
	}
	rate := s.spanRates[class]
	if rate <= 0 {
		return 0
	}
	if rate < 1 && s.spanRng.Float64() >= rate {
		return 0
	}
	s.spanNext++
	return s.spanIDBase + s.spanNext
}

// handleArrival draws the request's item and class and routes it.
//
//qos:hotpath
func (s *Server) handleArrival() {
	now := s.clk.Now()
	rank := s.items.SampleItem(s.itemRng, now)
	class := s.cfg.Classes.SampleClass(s.classRng)
	if now >= s.warmupEnd {
		s.metrics.PerClass[class].Arrivals++
	}
	if s.emitOn {
		s.emit(trace.Event{T: now, Kind: trace.KindArrival, Item: rank, Class: class})
	}
	span := s.sampleSpan(class)
	clientID := -1
	if s.caches != nil {
		clientID = s.clientRng.Intn(s.caches.Size())
		if s.caches.Client(clientID).Lookup(rank, now) {
			// Served from the client's own cache: zero access time.
			if now >= s.warmupEnd {
				cm := s.metrics.PerClass[class]
				cm.CacheHits++
				cm.Served++
				cm.Delay.Add(0)
				cm.DelayHist.Add(0)
			}
			if s.emitOn {
				s.emit(trace.Event{T: now, Kind: trace.KindServed, Class: class, Arrival: now})
			}
			if span != 0 && s.emitOn {
				s.emit(trace.Event{T: now, Kind: trace.KindSpanStart, Item: rank, Class: class, Req: span, Reason: trace.VerdictCache})
				s.emit(trace.Event{T: now, Kind: trace.KindSpanEnd, Item: rank, Class: class, Req: span, Reason: trace.EndServed, Arrival: now, Start: now})
			}
			return
		}
	}
	if rank <= s.cutoff {
		// Push item: the server ignores the request (flat broadcast will
		// deliver it); the simulator tracks the waiter to measure delay.
		if span != 0 && s.emitOn {
			s.emit(trace.Event{T: now, Kind: trace.KindSpanStart, Item: rank, Class: class, Req: span, Reason: trace.VerdictPush})
		}
		//lint:allow hotalloc amortized: waiter slices reset to length 0 on drain and reuse capacity across cycles
		s.pushWaiters[rank] = append(s.pushWaiters[rank], pushWaiter{class: class, arrival: now, joined: now, client: clientID, tag: span})
		return
	}
	if span != 0 && s.emitOn {
		s.emit(trace.Event{T: now, Kind: trace.KindSpanStart, Item: rank, Class: class, Req: span, Reason: trace.VerdictPull})
	}
	if !s.up.TryRequest(now, s.uplinkRng) {
		if now >= s.warmupEnd {
			s.metrics.PerClass[class].UplinkLost++
		}
		if span != 0 && s.emitOn {
			s.emit(trace.Event{T: now, Kind: trace.KindSpanEnd, Item: rank, Class: class, Req: span, Reason: trace.EndUplinkLost, Arrival: now})
		}
		return
	}
	req := pullqueue.Request{
		Item:     rank,
		Class:    class,
		Priority: s.cfg.Classes.Weight(class),
		Arrival:  now,
		Client:   clientID,
		Tag:      span,
	}
	if s.shedPull(req, now) {
		return
	}
	s.enqueuePull(req, now)
}

// enqueuePull adds an admitted pull request to the selector at now (the
// caller's reading of the clock, so a span's enqueue lands at its admission
// instant even on a wall clock) and kicks the channel if it was idle (only
// reachable when the effective cutoff is 0).
//
//qos:hotpath
func (s *Server) enqueuePull(req pullqueue.Request, now float64) {
	s.selector.Add(req, s.cfg.Catalog.Length(req.Item))
	if span := s.spanOf(req.Tag); span != 0 && s.emitOn {
		// Enqueue provenance: the entry's post-add selection score, the
		// quantity the next extraction decision will rank it by.
		if e := s.selector.Entry(req.Item); e != nil {
			s.emit(trace.Event{
				T: now, Kind: trace.KindSpanEnqueue, Item: req.Item, Class: req.Class,
				Req: span, Score: trace.Score(s.selector.Score(e, now)), Requests: int32(e.NumRequests()),
			})
		}
	}
	s.observeQueue()
	if s.idle {
		s.idle = false
		s.attemptPull()
	}
}

// shedPull consults the overload admission controller and reports whether
// the request was refused. The controller samples pending load (queued pull
// requests plus outstanding retries) at every admission decision, so the
// shed level moves at most one class per arriving request.
//
//qos:hotpath
func (s *Server) shedPull(req pullqueue.Request, now float64) bool {
	if s.shedder == nil {
		return false
	}
	load := s.selector.Requests() + s.pendingRetries
	if s.shedder.Admit(load, int(req.Class)) {
		return false
	}
	if req.Arrival >= s.warmupEnd {
		s.metrics.PerClass[req.Class].Shed++
	}
	if s.emitOn {
		s.emit(trace.Event{T: now, Kind: trace.KindShed, Item: req.Item, Class: req.Class})
	}
	if req.Tag != 0 && s.emitOn {
		s.emit(trace.Event{
			T: now, Kind: trace.KindSpanEnd, Item: req.Item, Class: req.Class,
			Req: req.Tag, Reason: trace.EndShed, Arrival: req.Arrival,
		})
	}
	return true
}

// retryAfterLoss books the next re-request for a request whose pull delivery
// (or uplink re-request) just failed at now. It returns false when the retry
// budget is exhausted — the caller records the terminal outcome. A retry
// that would fire after the request's TTL deadline is recorded as Expired
// here (the client gives up listening at its deadline).
//
//qos:hotpath
func (s *Server) retryAfterLoss(r pullqueue.Request, now float64) bool {
	if !s.cfg.Retry.Enabled() || r.Attempts >= s.cfg.Retry.MaxAttempts {
		return false
	}
	retryAt := now + s.cfg.Retry.Backoff(r.Attempts, s.retryRng)
	if s.cfg.RequestTTL > 0 && retryAt > r.Arrival+s.cfg.RequestTTL {
		if r.Arrival >= s.warmupEnd {
			s.metrics.PerClass[r.Class].Expired++
		}
		if r.Tag != 0 && s.emitOn {
			// The client gives up at its deadline rather than booking a
			// retry that would land past it.
			s.emit(trace.Event{
				T: now, Kind: trace.KindSpanEnd, Item: r.Item, Class: r.Class,
				Req: r.Tag, Reason: trace.EndExpired, Arrival: r.Arrival,
			})
		}
		return true
	}
	r.Attempts++
	if r.Arrival >= s.warmupEnd {
		s.metrics.PerClass[r.Class].Retries++
	}
	if s.emitOn {
		s.emit(trace.Event{
			T: now, Kind: trace.KindRetry, Item: r.Item, Class: r.Class, Attempt: r.Attempts,
		})
	}
	s.pendingRetries++
	s.observePendingRetries()
	// Unlike the arrival/push/pull handlers, retries are multi-outstanding
	// (every lost request books its own), so each needs its own closure.
	//lint:allow hotalloc per-retry closure: retries are loss-path only and bounded by MaxAttempts
	s.clk.At(retryAt, func() {
		s.pendingRetries--
		s.observePendingRetries()
		s.handleRetry(r)
	})
	return true
}

// handleRetry delivers a client's re-request to the server. Like any fresh
// request it must win the uplink and pass admission control; an uplink loss
// spends the attempt and backs off again until the budget runs out.
//
//qos:hotpath
func (s *Server) handleRetry(r pullqueue.Request) {
	now := s.clk.Now()
	if r.Tag != 0 && s.emitOn {
		// The backoff segment ends here; what follows (uplink, admission,
		// enqueue) decides the next segment, exactly like a fresh arrival.
		s.emit(trace.Event{
			T: now, Kind: trace.KindSpanRetry, Item: r.Item, Class: r.Class,
			Req: r.Tag, Attempt: r.Attempts,
		})
	}
	if !s.up.TryRequest(now, s.uplinkRng) {
		if !s.retryAfterLoss(r, now) {
			if r.Arrival >= s.warmupEnd {
				s.metrics.PerClass[r.Class].UplinkLost++
			}
			if r.Tag != 0 && s.emitOn {
				s.emit(trace.Event{
					T: now, Kind: trace.KindSpanEnd, Item: r.Item, Class: r.Class,
					Req: r.Tag, Reason: trace.EndUplinkLost, Arrival: r.Arrival,
				})
			}
		}
		return
	}
	if s.shedPull(r, now) {
		return
	}
	s.enqueuePull(r, now)
}

// startPush begins the next broadcast transmission from the push scheduler.
// The downlink is serial, so at most one push completion is ever booked:
// the in-flight item rides in s.pushItem and the handler is reused.
//
//qos:hotpath
func (s *Server) startPush() {
	item := s.pushSched.Next()
	length := s.cfg.Catalog.Length(item)
	if s.emitOn {
		s.emit(trace.Event{T: s.clk.Now(), Kind: trace.KindPushStart, Item: item, Class: -1})
	}
	s.pushItem = item
	s.txTok = s.clk.After(length, s.pushH)
}

// completePush satisfies every waiter of the broadcast item, then gives the
// pull system its slot.
//
//qos:hotpath
func (s *Server) completePush(item int) {
	now := s.clk.Now()
	s.metrics.PushBroadcasts++
	if s.loss != nil && s.loss.Corrupted(now, s.lossRng) {
		// Nobody decoded the broadcast: waiters stay registered and catch
		// the item's next push cycle; no cache fills, no PIX update.
		s.metrics.CorruptedPushes++
		if s.emitOn {
			s.emit(trace.Event{
				T: now, Kind: trace.KindCorrupt, Item: item, Class: -1,
				Push: true, Requests: int32(len(s.pushWaiters[item])),
			})
		}
		s.attemptPull()
		return
	}
	s.noteTransmission(item)
	if s.emitOn {
		s.emit(trace.Event{
			T: now, Kind: trace.KindPushComplete, Item: item, Class: -1,
			Requests: int32(len(s.pushWaiters[item])),
		})
	}
	start := now - s.cfg.Catalog.Length(item)
	for _, w := range s.pushWaiters[item] {
		ws := start
		if w.joined > ws {
			// The waiter tuned in mid-broadcast (or a roamer re-attached
			// mid-broadcast): its service segment starts at its own
			// registration, not at the transmission start.
			ws = w.joined
		}
		s.recordServed(w.class, w.arrival, now, true, item, w.tag, ws)
		s.fillCache(w.client, item, now)
	}
	s.pushWaiters[item] = s.pushWaiters[item][:0]
	s.attemptPull()
}

// attemptPull serves the best pull entry if one exists and bandwidth allows,
// otherwise returns control to the push system (or idles when the effective
// cutoff is 0).
//
//qos:hotpath
func (s *Server) attemptPull() {
	for {
		entry := s.selector.ExtractBest(s.clk.Now())
		if entry == nil {
			if s.cutoff > 0 {
				s.startPush()
			} else {
				s.idle = true
			}
			return
		}
		if !s.anyLive(entry) {
			// Every request on the entry was already answered (submitted
			// requests expire in the queue): transmitting would serve no
			// one. Generated requests never end before their delivery, so
			// the simulator never takes this branch.
			s.selector.Recycle(entry)
			continue
		}
		s.observeQueue()

		var grant *bandwidth.Grant
		if s.alloc != nil {
			g, blocked := s.alloc.Reserve(entry.HighestClass(), entry.Length)
			if blocked {
				// Paper: the item and all its pending requests are lost.
				s.metrics.BlockedTransmissions++
				if s.emitOn {
					s.emit(trace.Event{
						T: s.clk.Now(), Kind: trace.KindBlocked, Item: entry.Item,
						Class: entry.HighestClass(), Requests: int32(len(entry.Requests)),
					})
				}
				for _, r := range entry.Requests {
					if r.Arrival >= s.warmupEnd {
						s.metrics.PerClass[r.Class].Dropped++
					}
					if r.Tag != 0 && s.emitOn {
						s.emit(trace.Event{
							T: s.clk.Now(), Kind: trace.KindSpanEnd, Item: entry.Item, Class: r.Class,
							Req: r.Tag, Reason: trace.EndBlocked, Arrival: r.Arrival,
						})
					}
				}
				s.selector.Recycle(entry)
				if s.cfg.RetryOnBlock {
					continue
				}
				if s.cutoff > 0 {
					s.startPush()
				} else {
					// Try the next entry anyway: with no push system the
					// slot has no other use.
					continue
				}
				return
			}
			grant = g
			s.observeBandwidth()
		}

		s.emitDecision(entry)
		if s.emitOn {
			s.emit(trace.Event{
				T: s.clk.Now(), Kind: trace.KindPullStart, Item: entry.Item,
				Class: entry.HighestClass(), Requests: int32(len(entry.Requests)),
			})
		}
		// Serial downlink: at most one pull completion in flight, so the
		// entry and grant ride in fields and the handler is reused.
		s.pullEntry, s.pullGrant = entry, grant
		s.txTok = s.clk.After(entry.Length, s.pullH)
		return
	}
}

// emitDecision records scheduler decision provenance for a pull extraction
// that is about to transmit: the winning entry's selection score and the
// runner-up it beat (the queue's best remaining entry). Emitted only when
// the winning entry carries at least one sampled request, so span-off runs
// and unsampled traffic pay a nil check and nothing else.
//
//qos:hotpath
func (s *Server) emitDecision(entry *pullqueue.Entry) {
	if s.spanRng == nil || !s.emitOn {
		return
	}
	sampled := false
	for i := range entry.Requests {
		if s.spanOf(entry.Requests[i].Tag) != 0 {
			sampled = true
			break
		}
	}
	if !sampled {
		return
	}
	now := s.clk.Now()
	ev := trace.Event{
		T: now, Kind: trace.KindDecision, Item: entry.Item,
		Class: entry.HighestClass(), Requests: int32(len(entry.Requests)),
		Score: trace.Score(s.selector.Score(entry, now)),
	}
	if ru := s.selector.Peek(now); ru != nil {
		ev.RunnerUp = int32(ru.Item)
		ev.RunnerUpScore = trace.Score(s.selector.Score(ru, now))
	}
	s.emit(ev)
}

// completePull satisfies all of the entry's pending requests and hands the
// channel back to the push system.
//
//qos:hotpath
func (s *Server) completePull(entry *pullqueue.Entry, grant *bandwidth.Grant) {
	now := s.clk.Now()
	s.metrics.PullTransmissions++
	if s.loss != nil && s.loss.Corrupted(now, s.lossRng) {
		// The delivery was corrupted: each pending request either books a
		// client re-request (bounded backoff) or fails terminally.
		s.metrics.CorruptedPulls++
		if s.emitOn {
			s.emit(trace.Event{
				T: now, Kind: trace.KindCorrupt, Item: entry.Item,
				Class: entry.HighestClass(), Requests: int32(len(entry.Requests)),
			})
		}
		// retryAfterLoss schedules against value copies of the requests, so
		// the entry (and its request slice) is free to reuse immediately.
		for _, r := range entry.Requests {
			if r.Tag != 0 && s.emitOn {
				// The failed service segment: transmission start to the
				// corruption being detected at completion.
				s.emit(trace.Event{
					T: now, Kind: trace.KindSpanLoss, Item: entry.Item, Class: r.Class,
					Req: r.Tag, Start: now - entry.Length, Attempt: r.Attempts + 1,
				})
			}
			if !s.retryAfterLoss(r, now) {
				if r.Arrival >= s.warmupEnd {
					s.metrics.PerClass[r.Class].Failed++
				}
				if r.Tag != 0 && s.emitOn {
					s.emit(trace.Event{
						T: now, Kind: trace.KindSpanEnd, Item: entry.Item, Class: r.Class,
						Req: r.Tag, Reason: trace.EndFailed, Arrival: r.Arrival,
					})
				}
			}
		}
		s.selector.Recycle(entry)
		if grant != nil {
			s.alloc.Release(grant)
			s.observeBandwidth()
		}
		if s.cutoff > 0 {
			s.startPush()
		} else {
			s.attemptPull()
		}
		return
	}
	s.noteTransmission(entry.Item)
	if s.emitOn {
		s.emit(trace.Event{
			T: now, Kind: trace.KindPullComplete, Item: entry.Item,
			Class: entry.HighestClass(), Requests: int32(len(entry.Requests)),
		})
	}
	for _, r := range entry.Requests {
		s.recordServed(r.Class, r.Arrival, now, false, entry.Item, r.Tag, now-entry.Length)
		s.fillCache(r.Client, entry.Item, now)
	}
	s.selector.Recycle(entry)
	if grant != nil {
		s.alloc.Release(grant)
		s.observeBandwidth()
	}
	if s.cutoff > 0 {
		s.startPush()
	} else {
		s.attemptPull()
	}
}

// noteTransmission updates the empirical broadcast-frequency counters that
// feed PIX scores (only maintained when caching is enabled).
//
//qos:hotpath
func (s *Server) noteTransmission(item int) {
	if s.txCounts == nil {
		return
	}
	s.txCounts[item]++
	s.txTotal++
}

// fillCache stores a just-received item in the requesting client's cache.
// The PIX score is the item's access probability over its MEASURED
// broadcast frequency (add-one smoothed), exactly as the broadcast-disk
// policy prescribes: items that are popular but appear on the channel
// rarely are the most valuable to cache.
//
//qos:hotpath
func (s *Server) fillCache(clientID, item int, now float64) {
	if s.caches == nil || clientID < 0 {
		return
	}
	x := float64(s.txCounts[item]+1) / float64(s.txTotal+int64(s.cfg.Catalog.D()))
	s.caches.Client(clientID).Insert(item, s.cfg.Catalog.Prob(item)/x, now)
}

// CacheHitRate returns the population-wide client cache hit rate, 0 when
// caching is disabled.
//
//lint:allow deadcode measurement: ABL-CACHE's BenchmarkCachePolicies reports each cache policy's hit rate with it (DESIGN.md)
func (s *Server) CacheHitRate() float64 {
	if s.caches == nil {
		return 0
	}
	return s.caches.HitRate()
}

// recordServed logs one satisfied request (post-warmup arrivals only).
// Under RequestTTL, a request whose deadline passed before the transmission
// completed is counted as Expired instead. tag is the request's identity
// (pullqueue.Request.Tag); start is its service-segment start time —
// transmission start, or the request's own arrival when it joined a
// broadcast already in flight — for span provenance. A submitted request
// (negative tag) already answered by its deadline is skipped; a live one
// is resolved to its caller after the books are kept.
//
//qos:hotpath
func (s *Server) recordServed(class clients.Class, arrival, completion float64, push bool, item int, tag int64, start float64) {
	span, slot := tag, int32(-1)
	if tag < 0 {
		sl, ok := s.reqs.live(tag)
		if !ok {
			return
		}
		span, slot = s.reqs.span[sl], sl
	}
	d := completion - arrival
	expired := s.cfg.RequestTTL > 0 && d > s.cfg.RequestTTL
	if span != 0 && s.emitOn {
		if expired {
			s.emit(trace.Event{
				T: completion, Kind: trace.KindSpanEnd, Item: item, Class: class,
				Req: span, Reason: trace.EndExpired, Arrival: arrival, Start: start,
			})
		} else {
			s.emit(trace.Event{
				T: completion, Kind: trace.KindSpanEnd, Item: item, Class: class,
				Req: span, Reason: trace.EndServed, Arrival: arrival, Start: start, Push: push,
			})
		}
	}
	if arrival >= s.warmupEnd {
		cm := s.metrics.PerClass[class]
		if expired {
			cm.Expired++
		} else {
			cm.Served++
			cm.Delay.Add(d)
			cm.DelayHist.Add(d)
			if s.emitOn {
				s.emit(trace.Event{
					T: completion, Kind: trace.KindServed, Class: class,
					Arrival: arrival, Push: push,
				})
			}
			if push {
				cm.PushDelay.Add(d)
			} else {
				cm.PullDelay.Add(d)
			}
		}
	}
	if slot >= 0 {
		s.resolve(slot, Result{Outcome: OutcomeServed, Delay: d, Push: push})
	}
}

// Run is a convenience: build a Server from cfg and run it.
func Run(cfg Config) (*Metrics, error) {
	s, err := New(cfg)
	if err != nil {
		return nil, err
	}
	return s.Run(), nil
}
