package core

// This file is the cell lifecycle: the re-entrant face of the engine that
// lets a multi-cell cluster (internal/cluster) drive N Servers side by side.
// A cell is simply a Server stepped in segments — Start arms it, AdvanceTo
// runs the event loop to a barrier time, Finish closes the books — plus the
// cross-cell mobility surface: ExtractRoamers pulls pending requests out of
// the cell, ScheduleInject re-attaches a roamer that arrived over the backhaul, and
// RefuseHandoff records a roamer the cell turned away. Run (engine.go) is
// Start + AdvanceTo(horizon) + Finish, so single-cell output is bit-identical
// however the engine is driven: nothing executes at a barrier except the
// clock advancing.

import (
	"hybridqos/internal/clients"
	"hybridqos/internal/pullqueue"
	"hybridqos/internal/trace"
)

// Roamer is one pending request extracted from a cell by the client-mobility
// model: the client left mid-request, carrying its service class, original
// arrival time (the deadline budget keeps running in transit) and retry
// attempts already spent.
type Roamer struct {
	// Item is the requested catalog rank in the origin cell's numbering.
	Item int
	// Class is the client's service class.
	Class clients.Class
	// Arrival is the request's original arrival time.
	Arrival float64
	// Attempts counts re-requests already made after corrupted deliveries.
	Attempts int
	// Push reports whether the client was waiting on a broadcast (item rank
	// within the origin cell's push cutoff) rather than a queued pull.
	Push bool
	// Span is the request's span ID when it was head-sampled for span
	// provenance in its origin cell (0 otherwise). It travels with the
	// roamer so the destination cell's span events keep the same ID and
	// cross-cell parent links survive stream merging.
	Span int64
}

// InjectOutcome is the fate of a roamer delivered to a cell.
type InjectOutcome int

// Inject outcomes.
const (
	// InjectAccepted: the request re-attached (push waiter or pull queue).
	InjectAccepted InjectOutcome = iota
	// InjectExpired: the request's deadline passed while in transit.
	InjectExpired
	// InjectShed: the destination's admission controller refused it.
	InjectShed
)

// Start arms the simulation: initial gauge observations, the telemetry
// snapshot chain, the first arrival, and the broadcast loop. It is the first
// third of Run, split out so a cluster can interleave AdvanceTo calls with
// cross-cell exchanges. Call it exactly once, before any AdvanceTo.
func (s *Server) Start() {
	s.observeQueue()
	s.observeBandwidth()
	if s.tele != nil && s.tele.SnapshotEvery() > 0 {
		s.scheduleSnapshot(1)
	}
	if s.arrivals != nil { // a serving Server's requests arrive through Submit
		s.scheduleNextArrival()
	}
	if s.cutoff > 0 {
		s.startPush()
	} else {
		s.idle = true
	}
}

// AdvanceTo runs the event loop up to simulated time t, clamped to the
// horizon. It is re-entrant: a cluster calls it once per handoff epoch with
// increasing barrier times, and because no simulation code executes at the
// barrier itself, the event trajectory is identical to one uninterrupted
// AdvanceTo(horizon).
func (s *Server) AdvanceTo(t float64) {
	if t > s.cfg.Horizon {
		t = s.cfg.Horizon
	}
	s.vclk.RunUntil(t)
}

// Finish closes the run at the horizon — time-weighted queue means, final
// bandwidth statistics, and the trace.KindRunEnd mark to the tracer, which
// makes a trace.Buffer behind it flush, so its Events hold the whole run —
// and returns the metrics. Call it exactly once, after the final AdvanceTo
// reached the horizon.
func (s *Server) Finish() *Metrics {
	s.metrics.QueueItems.MeanAt(s.cfg.Horizon)
	s.metrics.QueueRequests.MeanAt(s.cfg.Horizon)
	if s.alloc != nil {
		for c := 0; c < s.alloc.NumClasses(); c++ {
			s.metrics.Bandwidth = append(s.metrics.Bandwidth, s.alloc.Stats(clients.Class(c)))
		}
	}
	if s.tracer != nil {
		s.tracer.Event(trace.Event{T: s.cfg.Horizon, Kind: trace.KindRunEnd, Class: -1})
	}
	return s.metrics
}

// Now returns the cell's current simulated time.
func (s *Server) Now() float64 { return s.clk.Now() }

// Peek returns the run's live metrics for mid-run observers (cluster
// saturation sampling and barrier snapshots). The returned value is the
// engine's own accumulator: treat it as read-only, and call Finish — not
// Peek — for final results (Finish closes the time-weighted trackers).
func (s *Server) Peek() *Metrics { return s.metrics }

// Horizon returns the cell's configured horizon.
func (s *Server) Horizon() float64 { return s.cfg.Horizon }

// PendingLoad returns the cell's current backlog: queued pull requests,
// booked retries and registered push waiters — the load signal used by
// least-loaded routing and cluster saturation detection.
func (s *Server) PendingLoad() int {
	n := s.selector.Requests() + s.pendingRetries
	for _, ws := range s.pushWaiters {
		n += len(ws)
	}
	return n
}

// ExtractRoamers removes pending requests chosen by roam from the cell and
// returns them in a deterministic order: queued pull requests first (item
// rank ascending, arrival order within an item), then push waiters (rank
// ascending, arrival order within a rank). roam is called once per pending
// request, in exactly that order, so the caller can drive it from its own
// per-cell random stream without perturbing the cell's streams. Requests not
// chosen are re-enqueued unchanged. Requests whose transmission is already
// in flight are not pending and cannot roam — they are about to be served
// (or lost) where they are.
func (s *Server) ExtractRoamers(roam func() bool) []Roamer {
	var out []Roamer
	entries := s.selector.Drain()
	for _, e := range entries {
		for _, r := range e.Requests {
			if roam() {
				out = append(out, Roamer{Item: r.Item, Class: r.Class, Arrival: r.Arrival, Attempts: r.Attempts, Span: r.Tag})
				s.metrics.PerClass[r.Class].HandoffsOut++
				s.spanHandoff(r.Item, r.Class, r.Tag)
			} else {
				s.selector.Add(r, e.Length)
			}
		}
	}
	// Recycling is deferred until every entry's requests are re-added: Add
	// may reuse a freelist entry, and the drained entries' request slices
	// must stay intact while still being read.
	for _, e := range entries {
		s.selector.Recycle(e)
	}
	for rank := 1; rank < len(s.pushWaiters); rank++ {
		ws := s.pushWaiters[rank]
		if len(ws) == 0 {
			continue
		}
		keep := ws[:0]
		for _, w := range ws {
			if roam() {
				out = append(out, Roamer{Item: rank, Class: w.class, Arrival: w.arrival, Push: true, Span: w.tag})
				s.metrics.PerClass[w.class].HandoffsOut++
				s.spanHandoff(rank, w.class, w.tag)
			} else {
				keep = append(keep, w)
			}
		}
		s.pushWaiters[rank] = keep
	}
	if len(out) > 0 {
		s.observeQueue()
	}
	return out
}

// inject delivers a roamer to this cell at the current simulated time.
// Unlike handleArrival the request arrives over the inter-cell backhaul, so
// it skips uplink contention — but it still passes admission control, and
// its deadline budget (measured from the original arrival) kept running
// while in transit. Accepted roamers re-attach as a push waiter when the
// item is within this cell's push cutoff, otherwise they join the pull
// queue.
func (s *Server) inject(item int, class clients.Class, arrival float64, attempts int, span int64) InjectOutcome {
	now := s.clk.Now()
	if s.cfg.RequestTTL > 0 && now > arrival+s.cfg.RequestTTL {
		if arrival >= s.warmupEnd {
			s.metrics.PerClass[class].Expired++
		}
		s.refuseHandoff(item, class, trace.RefusalExpired, arrival, span)
		return InjectExpired
	}
	if item <= s.cutoff {
		s.acceptHandoff(item, class)
		s.spanAttach(item, class, span, trace.VerdictPush)
		s.pushWaiters[item] = append(s.pushWaiters[item], pushWaiter{class: class, arrival: arrival, joined: now, client: -1, tag: span})
		return InjectAccepted
	}
	if s.shedder != nil {
		load := s.selector.Requests() + s.pendingRetries
		if !s.shedder.Admit(load, int(class)) {
			if arrival >= s.warmupEnd {
				s.metrics.PerClass[class].Shed++
			}
			s.refuseHandoff(item, class, trace.RefusalShed, arrival, span)
			return InjectShed
		}
	}
	s.acceptHandoff(item, class)
	s.spanAttach(item, class, span, trace.VerdictPull)
	s.enqueuePull(pullqueue.Request{
		Item:     item,
		Class:    class,
		Priority: s.cfg.Classes.Weight(class),
		Arrival:  arrival,
		Client:   -1,
		Attempts: attempts,
		Tag:      span,
	}, now)
	return InjectAccepted
}

// ScheduleInject books a handoff injection at simulated time at — the
// roamer's re-attach instant after its transit delay. The done callback (may
// be nil) runs inside the cell's event loop, right after the injection;
// cluster callers use it to tally per-cell outcomes without any cross-cell
// shared state.
func (s *Server) ScheduleInject(at float64, item int, class clients.Class, arrival float64, attempts int, span int64, done func(InjectOutcome)) {
	s.clk.At(at, func() {
		out := s.inject(item, class, arrival, attempts, span)
		if done != nil {
			done(out)
		}
	})
}

// RefuseHandoff records a roamer this cell turned away without processing:
// reason trace.RefusalNoItem when the item is absent from the cell's
// catalog, or trace.RefusalHorizon when the transit would end past the
// simulation horizon. (The refusals inject decides itself —
// trace.RefusalExpired, trace.RefusalShed — book themselves.)
// arrival and span carry the roamer's original arrival and span ID for the
// refusal's span terminal (0s when the roamer is unsampled).
func (s *Server) RefuseHandoff(item int, class clients.Class, reason trace.Reason, arrival float64, span int64) {
	s.refuseHandoff(item, class, reason, arrival, span)
}

// acceptHandoff books an accepted inbound roamer.
func (s *Server) acceptHandoff(item int, class clients.Class) {
	s.metrics.PerClass[class].HandoffsIn++
	if s.emitOn {
		s.emit(&trace.Event{T: s.clk.Now(), Kind: trace.KindHandoff, Item: item, Class: class})
	}
}

// refuseHandoff books a refused inbound roamer. A sampled roamer's span
// terminates here with the refusal taxonomy (reason.Refused()).
func (s *Server) refuseHandoff(item int, class clients.Class, reason trace.Reason, arrival float64, span int64) {
	s.metrics.PerClass[class].HandoffRefusals++
	if s.emitOn {
		s.emit(&trace.Event{T: s.clk.Now(), Kind: trace.KindHandoffRefused, Item: item, Class: class, Reason: reason})
	}
	if span != 0 && s.emitOn {
		s.emit(&trace.Event{
			T: s.clk.Now(), Kind: trace.KindSpanEnd, Item: item, Class: class,
			Req: span, Reason: reason.Refused(), Arrival: arrival,
		})
	}
}

// spanHandoff emits the roam-out provenance event for a sampled request
// (no-op for span 0): the request's wait segment ends here and its transit
// segment begins; the destination cell's span-attach (or refusal terminal)
// closes it.
func (s *Server) spanHandoff(item int, class clients.Class, span int64) {
	if span == 0 || !s.emitOn {
		return
	}
	s.emit(&trace.Event{T: s.clk.Now(), Kind: trace.KindSpanHandoff, Item: item, Class: class, Req: span})
}

// spanAttach emits the roam-in provenance event for a sampled request
// (no-op for span 0). verdict records how the request re-attached: a push
// waiter or a pull enqueue (whose span-enqueue follows).
func (s *Server) spanAttach(item int, class clients.Class, span int64, verdict trace.Reason) {
	if span == 0 || !s.emitOn {
		return
	}
	s.emit(&trace.Event{T: s.clk.Now(), Kind: trace.KindSpanAttach, Item: item, Class: class, Req: span, Reason: verdict})
}
