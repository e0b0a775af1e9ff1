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
	"sync"

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
	tracer    trace.Tracer // nil when the config's tracer is nil or trace.Nop
	tele      *telemetry.Collector
	up        uplink.Channel
	uplinkRng *rng.Source
	caches    *cache.Population
	clientRng *rng.Source
	txCounts  []int64 // per-rank transmission counts (PIX frequency)
	txTotal   int64
	// pushWaiters is indexed by push rank (1..cutoff); slot 0 is unused.
	// Slices are reset to length 0 on drain, so waiter capacity is reused
	// across broadcast cycles instead of reallocated per arrival burst, and
	// across runs through waiterTables.
	pushWaiters [][]pushWaiter

	loss           faults.LossModel
	lossRng        *rng.Source
	retryRng       *rng.Source
	shedder        *faults.Shedder
	pendingRetries int // re-requests booked but not yet delivered

	// emitOn gates trace-event construction on the hot path: false when
	// there is no tracer and telemetry is off, where emit would build a
	// large Event struct per call only to discard it. Guarded sites are
	// behavior-identical because emit has no side effects in that state.
	emitOn bool
	// buf is the tracer when it is a *trace.Buffer, which emit records into
	// by pointer; nil sends events to tracer by value.
	buf *trace.Buffer

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
	pullGrant bandwidth.Grant  // its bandwidth grant, empty without an allocator

	// The telemetry snapshot chain is single-outstanding too: snapH emits
	// snapshot snapK and books the next one.
	snapH func()
	snapK int64

	// retries holds every booked loss retry until its backoff fires;
	// unlike the handlers above they are multi-outstanding (every lost
	// request books its own), so each takes an arena slot (arena.go).
	retries *retryArena

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
	s.arrivals = fresh(cfg.Arrivals)
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

// fresh returns v's own copy in its initial state when v keeps state between
// calls (it has a Fresh method: a Gilbert–Elliott chain, a token bucket, an
// MMPP), and v itself when it keeps none. Every run takes its loss model,
// uplink and arrival process through it, so one Config can be run any number
// of times, in sequence or in parallel.
func fresh[T any](v T) T {
	if f, ok := any(v).(interface{ Fresh() T }); ok {
		return f.Fresh()
	}
	return v
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

	// No tracer and the no-op sink are the same: s.tracer stays nil, so
	// emit neither copies an event into a sink that drops it nor calls it.
	if _, nop := cfg.Tracer.(trace.Nop); !nop {
		s.tracer = cfg.Tracer
	}
	s.tele = cfg.Telemetry
	s.emitOn = s.tracer != nil || s.tele != nil
	s.buf, _ = s.tracer.(*trace.Buffer)
	s.up = fresh(cfg.Uplink)
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
	s.loss = fresh(cfg.Loss)
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
	s.pushWaiters = newWaiterTable(s.cutoff + 1)

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
		entry := s.pullEntry
		s.pullEntry = nil
		s.completePull(entry)
	}
	s.snapH = func() {
		k := s.snapK
		t := float64(k) * s.tele.SnapshotEvery()
		s.emit(&trace.Event{T: t, Kind: trace.KindSnapshot, Class: -1, Snap: s.tele.TakeSnapshot(t)})
		s.scheduleSnapshot(k + 1)
	}
	s.retries = newRetryArena(s.fireRetry)

	s.metrics = &Metrics{Horizon: cfg.Horizon, Cutoff: cfg.Cutoff}
	for c := 0; c < cfg.Classes.NumClasses(); c++ {
		s.metrics.PerClass = append(s.metrics.PerClass, &ClassMetrics{
			Class:     clients.Class(c),
			Weight:    cfg.Classes.Weight(clients.Class(c)),
			DelayHist: cfg.DelaySamples.histogram(),
		})
	}
	return s, nil
}

// waiterTables pools the push-waiter tables of finished runs
// (*[][]pushWaiter, every row cut to length 0 with its capacity kept), so
// a run's waiter lists start at the size the last run grew them to. A
// pushWaiter holds no pointers, so stale waiters keep nothing alive.
var waiterTables sync.Pool

// newWaiterTable returns an empty waiter table of rows rows: a pooled one
// when the pool has one that large, else a new one.
func newWaiterTable(rows int) [][]pushWaiter {
	if t, ok := waiterTables.Get().(*[][]pushWaiter); ok && len(*t) >= rows {
		return (*t)[:rows]
	}
	return make([][]pushWaiter, rows)
}

// release hands the pull queue's entries, the waiter table and the retry
// arena, with the capacity the run grew them to, to the next Server built.
// Only Run calls it, after Finish: that is the one point where nothing else
// can still hold the Server — a cell's cluster, a serving Server's daemon
// and every other New caller keep theirs, so their storage is left to the
// collector. The Server is unusable afterwards.
func (s *Server) release() {
	s.selector.Release()
	t := s.pushWaiters[:cap(s.pushWaiters)]
	for i := range t {
		t[i] = t[i][:0]
	}
	waiterTables.Put(&t)
	s.retries.pool()
	s.selector, s.pushWaiters, s.retries = nil, nil, nil
}

// emit routes one trace event to both consumers: the configured tracer and
// — via trace.Fold, the single definition of the event→metric mapping —
// the telemetry collector. Keeping both behind one call site is what makes
// the replay audit exact: the collector sees events in precisely the order
// the trace records them. Each site builds its event in place and passes
// its address, which neither consumer keeps, so the event stays on the
// stack: a trace.Buffer copies it once into its block, any other tracer
// gets one copy by value, and Fold only reads it. With no tracer (nil, or
// trace.Nop as configured) only telemetry reads the event.
//
//qos:hotpath
func (s *Server) emit(e *trace.Event) {
	if s.buf != nil {
		s.buf.Record(e)
	} else if s.tracer != nil {
		s.tracer.Event(*e)
	}
	trace.Fold(s.tele, e)
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
// the event heap stays small, and one is booked at a time, so the reused
// snapH finds its index in s.snapK. The callback only reads simulation
// state — no RNG draws, no queue mutations — so a telemetry-enabled run
// follows a trajectory bit-identical to the same run without it.
//
//qos:hotpath
func (s *Server) scheduleSnapshot(k int64) {
	t := float64(k) * s.tele.SnapshotEvery()
	if t > s.cfg.Horizon {
		return
	}
	s.snapK = k
	s.clk.At(t, s.snapH)
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
		s.emit(&trace.Event{T: now, Kind: trace.KindArrival, Item: rank, Class: class})
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
				if cm.DelayHist != nil {
					cm.DelayHist.Add(0)
				}
			}
			if s.emitOn {
				s.emit(&trace.Event{T: now, Kind: trace.KindServed, Class: class, Arrival: now})
			}
			if span != 0 && s.emitOn {
				s.emit(&trace.Event{T: now, Kind: trace.KindSpanStart, Item: rank, Class: class, Req: span, Reason: trace.VerdictCache})
				s.emit(&trace.Event{T: now, Kind: trace.KindSpanEnd, Item: rank, Class: class, Req: span, Reason: trace.EndServed, Arrival: now, Start: now})
			}
			return
		}
	}
	if rank <= s.cutoff {
		// Push item: the server ignores the request (flat broadcast will
		// deliver it); the simulator tracks the waiter to measure delay.
		if span != 0 && s.emitOn {
			s.emit(&trace.Event{T: now, Kind: trace.KindSpanStart, Item: rank, Class: class, Req: span, Reason: trace.VerdictPush})
		}
		//lint:allow hotalloc amortized: waiter slices reset to length 0 on drain and reuse capacity across cycles
		s.pushWaiters[rank] = append(s.pushWaiters[rank], pushWaiter{class: class, arrival: now, joined: now, client: clientID, tag: span})
		return
	}
	if span != 0 && s.emitOn {
		s.emit(&trace.Event{T: now, Kind: trace.KindSpanStart, Item: rank, Class: class, Req: span, Reason: trace.VerdictPull})
	}
	if !s.up.TryRequest(now, s.uplinkRng) {
		s.unserved(rank, class, now, span, trace.EndUplinkLost, now)
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
			s.emit(&trace.Event{
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
	if s.emitOn {
		s.emit(&trace.Event{T: now, Kind: trace.KindShed, Item: req.Item, Class: req.Class})
	}
	s.unserved(req.Item, req.Class, req.Arrival, req.Tag, trace.EndShed, now)
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
		// The client gives up at its deadline rather than booking a retry
		// that would land past it.
		s.unserved(r.Item, r.Class, r.Arrival, r.Tag, trace.EndExpired, now)
		return true
	}
	r.Attempts++
	if r.Arrival >= s.warmupEnd {
		s.metrics.PerClass[r.Class].Retries++
	}
	if s.emitOn {
		s.emit(&trace.Event{
			T: now, Kind: trace.KindRetry, Item: r.Item, Class: r.Class, Attempt: r.Attempts,
		})
	}
	s.pendingRetries++
	s.observePendingRetries()
	slot := s.retries.alloc()
	s.retries.req[slot] = r
	s.clk.At(retryAt, s.retries.fire[slot])
	return true
}

// fireRetry runs a booked retry whose backoff elapsed. The request is
// copied out and its slot freed first, so a retry that fails again can
// book its next attempt into the same slot.
//
//qos:hotpath
func (s *Server) fireRetry(slot int32) {
	r := s.retries.req[slot]
	s.retries.release(slot)
	s.pendingRetries--
	s.observePendingRetries()
	s.handleRetry(r)
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
		s.emit(&trace.Event{
			T: now, Kind: trace.KindSpanRetry, Item: r.Item, Class: r.Class,
			Req: r.Tag, Attempt: r.Attempts,
		})
	}
	if !s.up.TryRequest(now, s.uplinkRng) {
		if !s.retryAfterLoss(r, now) {
			s.unserved(r.Item, r.Class, r.Arrival, r.Tag, trace.EndUplinkLost, now)
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
		s.emit(&trace.Event{T: s.clk.Now(), Kind: trace.KindPushStart, Item: item, Class: -1})
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
			s.emit(&trace.Event{
				T: now, Kind: trace.KindCorrupt, Item: item, Class: -1,
				Push: true, Requests: int32(len(s.pushWaiters[item])),
			})
		}
		s.attemptPull()
		return
	}
	s.noteTransmission(item)
	if s.emitOn {
		s.emit(&trace.Event{
			T: now, Kind: trace.KindPushComplete, Item: item, Class: -1,
			Requests: int32(len(s.pushWaiters[item])),
		})
	}
	start := now - s.cfg.Catalog.Length(item)
	// The list is detached while it is served: a done callback that
	// submits the same item again registers for the next broadcast, and is
	// put back below instead of being truncated away with the served ones.
	waiters := s.pushWaiters[item]
	s.pushWaiters[item] = nil
	for _, w := range waiters {
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
	s.pushWaiters[item] = append(waiters[:0], s.pushWaiters[item]...)
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

		if s.alloc != nil {
			if s.alloc.Reserve(entry.HighestClass(), entry.Length, &s.pullGrant) {
				// Paper: the item and all its pending requests are lost.
				s.metrics.BlockedTransmissions++
				if s.emitOn {
					s.emit(&trace.Event{
						T: s.clk.Now(), Kind: trace.KindBlocked, Item: entry.Item,
						Class: entry.HighestClass(), Requests: int32(len(entry.Requests)),
					})
				}
				for _, r := range entry.Requests {
					s.unserved(entry.Item, r.Class, r.Arrival, r.Tag, trace.EndBlocked, s.clk.Now())
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
			s.observeBandwidth()
		}

		s.emitDecision(entry)
		if s.emitOn {
			s.emit(&trace.Event{
				T: s.clk.Now(), Kind: trace.KindPullStart, Item: entry.Item,
				Class: entry.HighestClass(), Requests: int32(len(entry.Requests)),
			})
		}
		// Serial downlink: at most one pull completion in flight, so the
		// entry and grant ride in fields and the handler is reused.
		s.pullEntry = entry
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
	s.emit(&ev)
}

// completePull satisfies all of the entry's pending requests and hands the
// channel back to the push system.
//
//qos:hotpath
func (s *Server) completePull(entry *pullqueue.Entry) {
	now := s.clk.Now()
	s.metrics.PullTransmissions++
	if s.loss != nil && s.loss.Corrupted(now, s.lossRng) {
		// The delivery was corrupted: each pending request either books a
		// client re-request (bounded backoff) or fails terminally.
		s.metrics.CorruptedPulls++
		if s.emitOn {
			s.emit(&trace.Event{
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
				s.emit(&trace.Event{
					T: now, Kind: trace.KindSpanLoss, Item: entry.Item, Class: r.Class,
					Req: r.Tag, Start: now - entry.Length, Attempt: r.Attempts + 1,
				})
			}
			if !s.retryAfterLoss(r, now) {
				s.unserved(entry.Item, r.Class, r.Arrival, r.Tag, trace.EndFailed, now)
			}
		}
		s.selector.Recycle(entry)
		if s.alloc != nil {
			s.alloc.Release(&s.pullGrant)
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
		s.emit(&trace.Event{
			T: now, Kind: trace.KindPullComplete, Item: entry.Item,
			Class: entry.HighestClass(), Requests: int32(len(entry.Requests)),
		})
	}
	for _, r := range entry.Requests {
		s.recordServed(r.Class, r.Arrival, now, false, entry.Item, r.Tag, now-entry.Length)
		s.fillCache(r.Client, entry.Item, now)
	}
	s.selector.Recycle(entry)
	if s.alloc != nil {
		s.alloc.Release(&s.pullGrant)
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

// unserved books a request's terminal outcome other than service: the
// warmup-gated counter for end (trace.EndUplinkLost, EndShed, EndExpired,
// EndBlocked or EndFailed), then a sampled request's span end. It is the one
// mapping from a terminal reason to its ClassMetrics counter; span is the
// request's span ID (0 when unsampled). A counter event the outcome has
// (shed, expired) is the caller's, emitted before this call.
//
//qos:hotpath
func (s *Server) unserved(item int, class clients.Class, arrival float64, span int64, end trace.Reason, now float64) {
	if arrival >= s.warmupEnd {
		cm := s.metrics.PerClass[class]
		switch end {
		case trace.EndUplinkLost:
			cm.UplinkLost++
		case trace.EndShed:
			cm.Shed++
		case trace.EndExpired:
			cm.Expired++
		case trace.EndBlocked:
			cm.Dropped++
		case trace.EndFailed:
			cm.Failed++
		}
	}
	if span != 0 && s.emitOn {
		s.emit(&trace.Event{
			T: now, Kind: trace.KindSpanEnd, Item: item, Class: class,
			Req: span, Reason: end, Arrival: arrival,
		})
	}
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
			s.emit(&trace.Event{
				T: completion, Kind: trace.KindSpanEnd, Item: item, Class: class,
				Req: span, Reason: trace.EndExpired, Arrival: arrival, Start: start,
			})
		} else {
			s.emit(&trace.Event{
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
			if cm.DelayHist != nil {
				cm.DelayHist.Add(d)
			}
			if s.emitOn {
				s.emit(&trace.Event{
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
	m := s.Run()
	s.release()
	return m, nil
}
