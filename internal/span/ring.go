package span

import "hybridqos/internal/trace"

// defaultRingCapacity is the completed-span capacity NewRing uses for 0.
const defaultRingCapacity = 64

// Ring is a trace.Tracer that reconstructs spans live: it groups span
// events by request ID, hands a request's events to Build when its
// span-end arrives, and keeps the most recent completed spans in a fixed
// ring. A serving engine streams its events through it so /debug/spans is
// built by the same code as every offline span — there is no second span
// assembly. Memory is bounded by the open (pending) sampled requests plus
// the ring.
type Ring struct {
	open   map[int64][]trace.Event // events of each open span, by ID
	byItem map[int][]int64         // open span IDs per item, for decisions
	done   []*Span
	head   int
}

// NewRing returns an empty ring keeping the last capacity completed spans
// (defaultRingCapacity when capacity ≤ 0).
func NewRing(capacity int) *Ring {
	if capacity <= 0 {
		capacity = defaultRingCapacity
	}
	return &Ring{
		open:   make(map[int64][]trace.Event),
		byItem: make(map[int][]int64),
		done:   make([]*Span, 0, capacity),
	}
}

// Event implements trace.Tracer. Events that belong to no span are ignored;
// a decision is offered to every open span of its item (Build keeps it
// only where the span was queued for that item).
func (r *Ring) Event(e trace.Event) {
	if e.Kind == trace.KindDecision {
		for _, id := range r.byItem[e.Item] {
			r.open[id] = append(r.open[id], e)
		}
		return
	}
	if e.Req == 0 {
		return
	}
	evs := append(r.open[e.Req], e)
	if e.Kind != trace.KindSpanEnd {
		if len(evs) == 1 {
			r.byItem[e.Item] = append(r.byItem[e.Item], e.Req)
		}
		r.open[e.Req] = evs
		return
	}
	delete(r.open, e.Req)
	if len(evs) > 1 {
		r.forget(e.Item, e.Req)
	}
	// A span's own events are well-formed by construction: one start, one
	// end, time-ordered. Build's error would mean an engine bug; the span
	// is then dropped rather than served half-built.
	if spans, err := Build(evs); err == nil && len(spans) == 1 {
		r.record(spans[0])
	}
}

// forget removes a closed span from its item's open list.
func (r *Ring) forget(item int, id int64) {
	ids := r.byItem[item]
	for i, x := range ids {
		if x == id {
			ids = append(ids[:i], ids[i+1:]...)
			break
		}
	}
	if len(ids) == 0 {
		delete(r.byItem, item)
	} else {
		r.byItem[item] = ids
	}
}

// record pushes a completed span into the ring, evicting the oldest.
func (r *Ring) record(sp *Span) {
	if len(r.done) < cap(r.done) {
		r.done = append(r.done, sp)
		return
	}
	r.done[r.head] = sp
	r.head = (r.head + 1) % len(r.done)
}

// Spans returns the buffered completed spans, oldest first.
func (r *Ring) Spans() []*Span {
	out := make([]*Span, 0, len(r.done))
	out = append(out, r.done[r.head:]...)
	return append(out, r.done[:r.head]...)
}
