// Package event implements the discrete-event simulation engine underlying
// the wireless-cell simulator: a simulated clock and a priority queue of
// timestamped events with deterministic FIFO tie-breaking, so that two runs
// with the same seed replay the exact same event order.
//
// Queue is the one pending-event structure in the repository: a 4-ary
// min-heap on (time, insertion sequence) beside an index-addressed arena.
// Each heap node carries its own key and the arena slot of its handler, so
// comparisons read the heap slice alone and the arena is touched only to
// record a moved node's position. Nodes and Tokens hold no pointers, so
// steady-state scheduling allocates nothing and the garbage collector has
// no per-event pointers to trace. Simulator runs a Queue under a causal
// clock; the wall clock in internal/clock runs one under its mutex. Pop
// order is exactly ascending (time, seq) — TestDifferentialAgainstReferenceHeap
// pins both Queue and Simulator against the retired container/heap
// implementation.
//
// A self-rebooking handler (the simulator's arrival chain) may skip the
// queue round trip: Simulator.TryAdvance moves the clock to its successor's
// time when that successor would fire next anyway, and the handler runs it
// in place. The fire order is the one At would have produced, so the
// differential test also drives such a chain.
package event

import (
	"fmt"
	"math"
)

// Handler is the action executed when an event fires. Handlers close over
// whatever state they need (including the simulator or clock that schedules
// them) — the signature carries no arguments so the same handler type serves
// both the virtual event loop and the wall-clock loop in internal/clock.
type Handler = func()

// event is one scheduled occurrence's arena record, addressed by slot
// index; its key lives in its heap node. Fired and cancelled events park on
// the freelist and are reused by later Push calls; gen increments on every
// reuse so stale Tokens can never cancel the recycled slot.
type event struct {
	handler Handler
	gen     uint64 // reuse generation, guards Token validity
	pos     int32  // index of the event's node in the heap, or -1 once popped/cancelled
}

// node is one heap element: a pending event's key and its arena slot.
type node struct {
	time float64
	seq  uint64 // insertion order, breaks time ties deterministically
	slot int32
}

// arity is the heap's fan-out. Four children per level halve the tree's
// depth against a binary heap, and a node's children are adjacent in the
// heap slice, so a sift-down compares four keys that share cache lines.
const arity = 4

// Token identifies a scheduled event so it can be cancelled. A Token held
// past its event's firing (or cancellation) goes stale and cancels nothing,
// even after the queue reuses the event's storage. The zero Token is valid
// and cancels nothing (arena generations start at 1).
type Token struct {
	slot int32
	gen  uint64
}

// Queue is a min-priority queue of handlers ordered by ascending time, with
// insertion order breaking ties. It imposes no causality: any time may be
// pushed at any moment, including times before the last pop and −Inf. The
// zero Queue is empty and ready to use. A Queue is not safe for concurrent
// use.
type Queue struct {
	events  []event // index-addressed arena of handlers; heap nodes reference slots
	free    []int32 // fired/cancelled slots awaiting reuse
	heap    []node  // 4-ary min-heap of pending events on (time, seq)
	nextSeq uint64
}

// Len returns the number of pending events.
func (q *Queue) Len() int { return len(q.heap) }

// Push schedules h at time t and returns a Token for cancellation. t must
// not be NaN and h must not be nil; Push does not check (Simulator.At and
// the wall clock's At do).
//
//qos:hotpath
func (q *Queue) Push(t float64, h Handler) Token {
	var i int32
	if n := len(q.free); n > 0 {
		i = q.free[n-1]
		q.free = q.free[:n-1]
	} else {
		i = q.grow()
	}
	ev := &q.events[i]
	ev.handler = h
	ev.gen++
	x := node{time: t, seq: q.nextSeq, slot: i}
	q.nextSeq++
	n := len(q.heap)
	if n < cap(q.heap) {
		q.heap = q.heap[:n+1]
	} else {
		q.heapGrow()
	}
	q.up(n, x)
	return Token{slot: i, gen: ev.gen}
}

// grow appends a fresh zero slot to the arena (cold path: the arena reaches
// the peak pending count once, then the freelist recycles).
func (q *Queue) grow() int32 {
	q.events = append(q.events, event{})
	return int32(len(q.events) - 1)
}

// heapGrow is Push's cold path: the heap's backing array grows to the peak
// pending count once. The new last node is a hole Push fills.
func (q *Queue) heapGrow() {
	q.heap = append(q.heap, node{})
}

// Cancel removes a pending event. Cancelling an already-fired or
// already-cancelled event is a no-op and returns false.
func (q *Queue) Cancel(tok Token) bool {
	if tok.gen == 0 || int(tok.slot) >= len(q.events) {
		return false
	}
	ev := &q.events[tok.slot]
	if ev.gen != tok.gen || ev.pos < 0 {
		return false
	}
	q.remove(int(ev.pos))
	q.recycle(tok.slot)
	return true
}

// PeekTime returns the earliest pending event's time; ok is false when the
// queue is empty.
//
//qos:hotpath
func (q *Queue) PeekTime() (t float64, ok bool) {
	if len(q.heap) == 0 {
		return 0, false
	}
	return q.heap[0].time, true
}

// Pop removes the earliest pending event and returns its time and handler.
// It panics on an empty queue.
//
//qos:hotpath
func (q *Queue) Pop() (float64, Handler) {
	top := q.heap[0]
	q.remove(0)
	h := q.events[top.slot].handler
	q.recycle(top.slot)
	return top.time, h
}

// recycle parks a popped or cancelled slot for reuse. The handler is
// dropped immediately so captured state does not outlive the event.
//
//qos:hotpath
func (q *Queue) recycle(i int32) {
	ev := &q.events[i]
	ev.handler = nil
	ev.pos = -1
	if n := len(q.free); n < cap(q.free) {
		q.free = q.free[:n+1]
		q.free[n] = i
	} else {
		q.freeGrow(i)
	}
}

// freeGrow is recycle's cold path: the freelist grows to the peak pending
// count once, then recycles.
func (q *Queue) freeGrow(i int32) {
	q.free = append(q.free, i)
}

// before reports whether node a pops before node b: ascending time,
// insertion sequence breaking ties. This single comparison defines the
// queue's total order.
//
//qos:hotpath
func before(a, b *node) bool {
	if a.time != b.time {
		return a.time < b.time
	}
	return a.seq < b.seq
}

// remove deletes the node at heap index j, restoring heap order: the last
// node fills the hole and sifts whichever way its key requires.
//
//qos:hotpath
func (q *Queue) remove(j int) {
	last := len(q.heap) - 1
	x := q.heap[last]
	q.heap = q.heap[:last]
	if j == last {
		return
	}
	if j > 0 && before(&x, &q.heap[(j-1)/arity]) {
		q.up(j, x)
	} else {
		q.down(j, x)
	}
}

// up places x in the hole at heap index j, moving the hole toward the root
// past every ancestor x pops before; each displaced node and x are written
// once.
//
//qos:hotpath
func (q *Queue) up(j int, x node) {
	h, evs := q.heap, q.events
	for j > 0 {
		parent := (j - 1) / arity
		p := h[parent]
		if !before(&x, &p) {
			break
		}
		h[j] = p
		evs[p.slot].pos = int32(j)
		j = parent
	}
	h[j] = x
	evs[x.slot].pos = int32(j)
}

// down places x in the hole at heap index j, moving the hole toward the
// leaves while x's earliest child pops before x.
//
//qos:hotpath
func (q *Queue) down(j int, x node) {
	h, evs := q.heap, q.events
	n := len(h)
	for {
		first := arity*j + 1
		if first >= n {
			break
		}
		least := first
		if first+arity <= n {
			// Full family: two independent pairs, then their winners.
			k := h[first : first+arity : first+arity]
			a, b := 0, 2
			if before(&k[1], &k[0]) {
				a = 1
			}
			if before(&k[3], &k[2]) {
				b = 3
			}
			if before(&k[b], &k[a]) {
				a = b
			}
			least += a
		} else {
			for c := first + 1; c < n; c++ {
				if before(&h[c], &h[least]) {
					least = c
				}
			}
		}
		if !before(&h[least], &x) {
			break
		}
		h[j] = h[least]
		evs[h[j].slot].pos = int32(j)
		j = least
	}
	h[j] = x
	evs[x.slot].pos = int32(j)
}

// Simulator is a causal event loop: a clock and a Queue whose events may
// only be scheduled at or after the current time.
type Simulator struct {
	now     float64
	horizon float64 // the running loop's horizon: +Inf in Run, −Inf outside a run
	stopped bool
	q       Queue
}

// New returns a Simulator with the clock at zero.
func New() *Simulator { return &Simulator{horizon: math.Inf(-1)} }

// Now returns the current simulated time.
func (s *Simulator) Now() float64 { return s.now }

// Pending returns the number of scheduled-but-unfired events.
func (s *Simulator) Pending() int { return s.q.Len() }

// At schedules h to run at absolute time t. Scheduling in the past panics —
// it would silently corrupt causality. Returns a Token for cancellation.
//
//qos:hotpath
func (s *Simulator) At(t float64, h Handler) Token {
	if t < s.now || math.IsNaN(t) {
		panic(fmt.Sprintf("event: scheduling at t=%g before now=%g", t, s.now))
	}
	if h == nil {
		panic("event: nil handler")
	}
	return s.q.Push(t, h)
}

// After schedules h to run delay time units from now. Negative delay panics.
//
//qos:hotpath
func (s *Simulator) After(delay float64, h Handler) Token {
	if delay < 0 || math.IsNaN(delay) {
		panic(fmt.Sprintf("event: negative delay %g", delay))
	}
	return s.At(s.now+delay, h)
}

// Cancel removes a scheduled event. Cancelling an already-fired or
// already-cancelled event is a no-op and returns false.
func (s *Simulator) Cancel(tok Token) bool { return s.q.Cancel(tok) }

// Stop makes the current Run/RunUntil call return after the in-flight
// handler finishes. Pending events remain queued.
func (s *Simulator) Stop() { s.stopped = true }

// TryAdvance lets the running handler fire its own successor at t in place
// of booking it: when t is the event the loop would fire next anyway, it
// advances the clock to t and returns true, and
// the caller runs the successor's work itself. That holds when a Run or
// RunUntil is in progress, t is at or before its horizon, the loop is not
// stopped, t is not before now, and t is strictly before every pending
// event — a pending event at t itself was scheduled first and so fires
// first. Otherwise TryAdvance changes nothing and returns false, and the
// caller books t through At as usual. Either way the fire order is the
// one At would have produced.
//
//qos:hotpath
func (s *Simulator) TryAdvance(t float64) bool {
	if s.stopped || !(t >= s.now && t <= s.horizon) {
		return false
	}
	if next, ok := s.q.PeekTime(); ok && next <= t {
		return false
	}
	s.now = t
	return true
}

// step pops and fires the earliest event. Returns false if none remain.
//
//qos:hotpath
func (s *Simulator) step() bool {
	if s.q.Len() == 0 {
		return false
	}
	t, h := s.q.Pop()
	s.now = t
	h()
	return true
}

// Run executes events until the queue drains or Stop is called.
func (s *Simulator) Run() {
	s.stopped = false
	s.horizon = math.Inf(1)
	for !s.stopped && s.step() {
	}
	s.horizon = math.Inf(-1)
}

// RunUntil executes events with time <= horizon, then advances the clock to
// exactly horizon. Events scheduled beyond the horizon stay queued. A NaN
// horizon panics: no event is at or before it.
func (s *Simulator) RunUntil(horizon float64) {
	if math.IsNaN(horizon) {
		panic("event: NaN horizon")
	}
	if horizon < s.now {
		panic(fmt.Sprintf("event: horizon %g before now %g", horizon, s.now))
	}
	s.stopped = false
	s.horizon = horizon
	for !s.stopped {
		if t, ok := s.q.PeekTime(); !ok || t > horizon {
			break
		}
		s.step()
	}
	s.horizon = math.Inf(-1)
	if !s.stopped && s.now < horizon {
		s.now = horizon
	}
}
