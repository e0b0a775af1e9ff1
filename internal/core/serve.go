package core

// This file is the serving entry point: the slot loop of engine.go mounted
// on a given clock and fed by Submit instead of generated arrivals. cmd/qosd
// mounts it on a Wall clock; the tests mount it on a Virtual clock and
// replay identical scenarios deterministically.
//
// Serving adds an external arrival path and nothing more: Submit runs the
// admission controller, takes an arena slot (arena.go) and books the
// request's expiry timer; expire answers a request its deadline beat; Drain
// refuses new work and quiesces the loop once every admitted request is
// answered. Submitted requests then travel through the same enqueuePull,
// push-waiter, attemptPull, completePush, completePull and recordServed
// paths as generated ones, identified by negative tags (arena handles).

import (
	"fmt"

	"hybridqos/internal/admission"
	"hybridqos/internal/clients"
	"hybridqos/internal/clock"
	"hybridqos/internal/pullqueue"
	"hybridqos/internal/trace"
)

// Outcome is the terminal state of an admitted submitted request.
type Outcome int

const (
	// OutcomeServed: the item's transmission completed by the deadline.
	OutcomeServed Outcome = iota
	// OutcomeExpired: the deadline passed first. The callback fires exactly
	// at the deadline, never after — a deadline that ties with a completion
	// resolves to expiry, because the expiry timer was scheduled first and
	// same-instant handlers fire in scheduling order on both clocks.
	OutcomeExpired
)

// String names the outcome for logs and HTTP responses.
func (o Outcome) String() string {
	if o == OutcomeServed {
		return "served"
	}
	return "expired"
}

// Result reports an admitted request's terminal state to its Done.
type Result struct {
	Outcome Outcome
	// Class is the class the request was submitted in.
	Class clients.Class
	// Delay is completion − submission in broadcast units (served only).
	Delay float64
	// Push reports whether a broadcast (vs an on-demand pull) served it.
	Push bool
}

// Done receives an admitted request's Result. An interface rather than a
// func(Result), so a caller whose answer path is already a func value (qosd's
// respond) hands that value over as it is: a func value is pointer-shaped,
// so converting a func type with a Done method to Done allocates nothing.
type Done interface {
	Done(Result)
}

// NewServing builds a serving Server on clk with adm as its front door.
// Only the slot-loop parts of cfg apply: Catalog, Classes, Cutoff, Alpha,
// the policy names (or injected policies), Tracer, Telemetry, Spans, Seed
// (which seeds the span sampling stream) and DelaySamples, nil by default,
// since a daemon reads no percentile (a caller that does should bound the
// samples: a daemon has no horizon). The
// generated-workload knobs (Lambda, Horizon, WarmupFraction) are ignored;
// bandwidth pools, faults, TTL, the shedder, uplink, client caches and
// custom arrival or item processes are refused — admission, not the
// simulated channel, decides a submitted request's fate. Start must run
// (on the clock goroutine) before the first Submit.
func NewServing(cfg Config, clk clock.Clock, adm admission.Config) (*Server, error) {
	if err := cfg.validate(false); err != nil {
		return nil, err
	}
	if clk == nil {
		return nil, fmt.Errorf("core: serving needs a clock")
	}
	if cfg.Bandwidth != nil || cfg.Loss != nil || cfg.Retry.Enabled() || cfg.Shed != nil ||
		cfg.RequestTTL != 0 || cfg.Uplink != nil || cfg.ClientCache != nil ||
		cfg.Arrivals != nil || cfg.Items != nil {
		return nil, fmt.Errorf("core: serving takes no bandwidth pools, faults, TTL, shedder, uplink, caches or workload processes")
	}
	ctl, err := admission.New(adm)
	if err != nil {
		return nil, err
	}
	if got, want := ctl.NumClasses(), cfg.Classes.NumClasses(); got != want {
		return nil, fmt.Errorf("core: admission configures %d classes, classification has %d", got, want)
	}
	s, err := newServer(cfg, clk)
	if err != nil {
		return nil, err
	}
	s.ctl = ctl
	s.reqs.onExpire = s.expire
	return s, nil
}

// spanOf returns the span ID a request tag carries: the tag itself for a
// generated request, the arena's record for a live submitted one, 0 when
// unsampled or already answered.
//
//qos:hotpath
func (s *Server) spanOf(tag int64) int64 {
	if tag >= 0 {
		return tag
	}
	if slot, ok := s.reqs.live(tag); ok {
		return s.reqs.span[slot]
	}
	return 0
}

// anyLive reports whether an extracted pull entry still has a request to
// serve. Generated requests (tags ≥ 0) are always live until delivered.
//
//qos:hotpath
func (s *Server) anyLive(entry *pullqueue.Entry) bool {
	for i := range entry.Requests {
		tag := entry.Requests[i].Tag
		if tag >= 0 {
			return true
		}
		if _, ok := s.reqs.live(tag); ok {
			return true
		}
	}
	return false
}

// Pending returns the number of admitted, not-yet-terminal submitted
// requests.
func (s *Server) Pending() int { return s.pending }

// Draining reports whether Drain has been called.
func (s *Server) Draining() bool { return s.draining }

// routing is the verdict a request for item takes: push waiter or pull
// queue. It reads the push band as built (the waiter table spans it), which
// a completed drain's retired push set does not change.
func (s *Server) routing(item int) trace.Reason {
	if item < len(s.pushWaiters) {
		return trace.VerdictPush
	}
	return trace.VerdictPull
}

// Submit routes one request through admission and into the slot loop.
// deadlineIn optionally tightens the class's delay budget (0 keeps it; it
// can never extend it). The verdict is admission.Admitted when the request
// entered: done (may be nil) will then fire exactly once, on the clock
// goroutine, at or before the deadline. Any other verdict is a refusal and
// done never fires. Submitting to a simulation or draining Server, or for
// an item outside [1, D], panics: those are caller contract violations
// (cmd/qosd validates requests and gates on Draining first).
func (s *Server) Submit(item int, class clients.Class, deadlineIn float64, done Done) admission.Verdict {
	if s.ctl == nil {
		panic("core: Submit on a simulation server")
	}
	if s.draining {
		panic("core: Submit on a draining server")
	}
	if item < 1 || item > s.cfg.Catalog.D() {
		panic(fmt.Sprintf("core: item %d outside [1,%d]", item, s.cfg.Catalog.D()))
	}
	now := s.clk.Now()
	s.metrics.PerClass[class].Arrivals++
	if s.emitOn {
		s.emit(&trace.Event{T: now, Kind: trace.KindArrival, Item: item, Class: class})
	}
	span := s.sampleSpan(class)
	v := s.ctl.Admit(now, int(class), s.pending)
	if s.tele != nil {
		s.tele.ObserveShedLevel(s.ctl.ShedLevel())
	}
	if v != admission.Admitted {
		s.refuse(item, class, v, span)
		return v
	}

	budget := s.ctl.Deadline(int(class))
	if deadlineIn > 0 && deadlineIn < budget {
		budget = deadlineIn
	}
	slot := s.reqs.alloc()
	s.reqs.item[slot] = int32(item)
	s.reqs.class[slot] = class
	s.reqs.arrival[slot] = now
	s.reqs.span[slot] = span
	s.reqs.done[slot] = done
	s.pending++
	// The expiry timer is booked before any transmission that could serve
	// the request, so a completion landing exactly on the deadline loses
	// the tie and the client hears "expired" — never a late success.
	s.reqs.expiry[slot] = s.clk.At(now+budget, s.reqs.expireH[slot])
	if span != 0 && s.emitOn {
		s.emit(&trace.Event{T: now, Kind: trace.KindSpanStart, Item: item, Class: class, Req: span, Reason: s.routing(item)})
	}
	tag := s.reqs.handle(slot)
	if item <= s.cutoff {
		s.pushWaiters[item] = append(s.pushWaiters[item], pushWaiter{class: class, arrival: now, joined: now, client: -1, tag: tag})
		return v
	}
	s.enqueuePull(pullqueue.Request{
		Item:     item,
		Class:    class,
		Priority: s.cfg.Classes.Weight(class),
		Arrival:  now,
		Client:   -1,
		Tag:      tag,
	}, now)
	return v
}

// refuse books an admission refusal: the verdict's counter event and, for a
// sampled request, a zero-length span carrying its routing verdict.
func (s *Server) refuse(item int, class clients.Class, v admission.Verdict, span int64) {
	var kind trace.Kind
	outcome := trace.EndRejected
	switch v {
	case admission.ShedOverload:
		s.metrics.PerClass[class].Shed++
		kind, outcome = trace.KindShed, trace.EndShed
	case admission.QuotaExceeded:
		kind = trace.KindQuotaExceeded
	case admission.RateLimited:
		kind = trace.KindRateLimited
	}
	if s.emitOn {
		s.emit(&trace.Event{T: s.clk.Now(), Kind: kind, Item: item, Class: class})
	}
	s.refusalSpan(item, class, span, outcome)
}

// RefuseDraining records a draining-door refusal span for a sampled request
// (a no-op with spans off). The daemon calls it, on the clock goroutine,
// for requests bounced before Submit because Drain already closed
// admission.
func (s *Server) RefuseDraining(item int, class clients.Class) {
	s.refusalSpan(item, class, s.sampleSpan(class), trace.EndDraining)
}

// refusalSpan emits the zero-length span of a sampled request turned away
// at the door, so the full refusal taxonomy is visible, not only
// successes.
func (s *Server) refusalSpan(item int, class clients.Class, span int64, outcome trace.Reason) {
	if span == 0 || !s.emitOn {
		return
	}
	now := s.clk.Now()
	s.emit(&trace.Event{T: now, Kind: trace.KindSpanStart, Item: item, Class: class, Req: span, Reason: s.routing(item)})
	s.emit(&trace.Event{T: now, Kind: trace.KindSpanEnd, Item: item, Class: class, Req: span, Reason: outcome, Arrival: now})
}

// expire answers a request whose deadline arrived before its item. Its
// pull entry or push-waiter record stays behind, dead: recordServed skips
// it and attemptPull recycles entries with no live request left.
func (s *Server) expire(slot int32) {
	now := s.clk.Now()
	class, item := s.reqs.class[slot], int(s.reqs.item[slot])
	if s.emitOn {
		s.emit(&trace.Event{T: now, Kind: trace.KindExpired, Item: item, Class: class})
	}
	s.unserved(item, class, s.reqs.arrival[slot], s.reqs.span[slot], trace.EndExpired, now)
	s.reqs.expiry[slot] = clock.Token{} // fired
	s.resolve(slot, Result{Outcome: OutcomeExpired})
}

// resolve is a submitted request's single terminal path: expiry timer
// cancelled, quota released, class stamped on res, slot recycled, callback,
// drain check. The slot is released before the callback runs, so a Done
// that submits a follow-up request reuses it immediately.
//
//qos:hotpath
func (s *Server) resolve(slot int32, res Result) {
	s.clk.Cancel(s.reqs.expiry[slot])
	res.Class = s.reqs.class[slot]
	s.ctl.Release(int(res.Class))
	s.pending--
	done := s.reqs.done[slot]
	s.reqs.release(slot)
	if done != nil {
		done.Done(res)
	}
	if s.draining && s.pending == 0 {
		s.finishDrain()
	}
}

// Drain stops admission permanently and lets the loop run until every
// admitted request has reached its terminal outcome; deadlines bound the
// wait. onDrained (may be nil) fires exactly once, on the clock goroutine,
// when the last request resolves — synchronously when nothing is pending.
func (s *Server) Drain(onDrained func()) {
	if s.draining {
		panic("core: Drain called twice")
	}
	s.draining = true
	s.onDrained = onDrained
	if s.tele != nil {
		s.tele.ObserveDraining(true)
	}
	if s.pending == 0 {
		s.finishDrain()
	}
}

// finishDrain quiesces the slot loop once nothing is pending: the in-flight
// transmission is cancelled (its entry recycled) and the push set retired
// (effective cutoff 0), so a completion handler that is running right now
// falls through to attemptPull, which recycles the dead entries and idles.
// Nothing is scheduled after that.
func (s *Server) finishDrain() {
	if s.clk.Cancel(s.txTok) && s.pullEntry != nil {
		s.selector.Recycle(s.pullEntry)
		s.pullEntry = nil
	}
	s.cutoff = 0
	s.idle = true
	if f := s.onDrained; f != nil {
		s.onDrained = nil
		f()
	}
}
