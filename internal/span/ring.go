package span

import "hybridqos/internal/trace"

// defaultRingCapacity is the completed-span capacity NewRing uses for 0.
const defaultRingCapacity = 64

// Ring is a trace.Tracer that reconstructs spans live: a Builder folds the
// events as they arrive and the most recent completed spans stay in a
// fixed ring. A serving engine streams its events through it, so
// /debug/spans comes from the same fold as every offline span. Memory is
// bounded by the open (pending) sampled requests plus the ring.
type Ring struct {
	builder *Builder
	done    []*Span
	head    int
}

// NewRing returns an empty ring keeping the last capacity completed spans
// (defaultRingCapacity when capacity ≤ 0).
func NewRing(capacity int) *Ring {
	if capacity <= 0 {
		capacity = defaultRingCapacity
	}
	r := &Ring{done: make([]*Span, 0, capacity)}
	r.builder = NewBuilder(r.record)
	return r
}

// Event implements trace.Tracer. A malformed event would mean an engine
// bug; the Builder rejects it without touching any span, so it is dropped
// and every other span keeps reconstructing.
func (r *Ring) Event(e trace.Event) {
	_ = r.builder.Add(e)
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
