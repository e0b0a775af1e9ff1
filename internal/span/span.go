// Package span reconstructs per-request span trees from the simulator's
// trace event stream. The engine (internal/core) emits span provenance
// events — span-start, span-enqueue, decision, span-loss, span-retry,
// span-handoff, span-attach, span-end — for head-sampled requests only;
// this package folds one request's events into a Span: a root covering the
// request lifetime plus contiguous child segments (queue-wait, push-wait,
// service, failed-service, retry-backoff, transit) that tile it exactly.
//
// Reconstruction is one streaming fold, Builder, whose memory grows with
// the open spans rather than the run length. Build runs it over a whole
// stream offline and Ring runs it live, so spans built from a live tracer,
// a JSONL file, or a cluster's merged per-cell streams are identical.
// Verify audits the invariant the engine promises: a closed span's
// segments are contiguous, start at the request arrival, end at the
// terminal event, and their durations sum to the effective delay.
package span

import (
	"fmt"
	"sort"

	"hybridqos/internal/clients"
	"hybridqos/internal/trace"
)

// Segment kinds. Every moment of a span's life is covered by exactly one.
const (
	// SegQueueWait: admitted to the pull queue, waiting for extraction.
	SegQueueWait = "queue-wait"
	// SegPushWait: registered for the item's scheduled broadcast.
	SegPushWait = "push-wait"
	// SegService: the delivering transmission (ends at the terminal).
	SegService = "service"
	// SegFailedService: a transmission that was corrupted on the downlink.
	SegFailedService = "failed-service"
	// SegRetryBackoff: client backoff between a loss and the re-request.
	SegRetryBackoff = "retry-backoff"
	// SegTransit: inter-cell handoff transit (client roaming mid-request).
	SegTransit = "transit"
)

// Segment is one contiguous child interval of a span.
type Segment struct {
	// Kind is one of the Seg* constants.
	Kind string `json:"kind"`
	// From and To bound the interval in simulated time.
	From float64 `json:"from"`
	To   float64 `json:"to"`
	// Cell is the cell the segment ran in (transit: the origin cell).
	Cell int `json:"cell,omitempty"`
	// Attempt is the 1-based transmission attempt on failed-service
	// segments, 0 elsewhere.
	Attempt int `json:"attempt,omitempty"`
}

// Duration returns the segment length.
func (s Segment) Duration() float64 { return s.To - s.From }

// Enqueue records one pull-queue admission of the request with the entry's
// post-add selection score — the quantity the next extraction ranks it by.
type Enqueue struct {
	T        float64 `json:"t"`
	Score    float64 `json:"score"`
	Requests int     `json:"requests"`
	Cell     int     `json:"cell,omitempty"`
}

// Decision records one scheduler extraction decision that selected the
// span's item: the winning score and the runner-up it beat.
type Decision struct {
	T             float64 `json:"t"`
	Item          int     `json:"item"`
	Score         float64 `json:"score"`
	RunnerUp      int     `json:"runner_up,omitempty"`
	RunnerUpScore float64 `json:"runner_up_score,omitempty"`
	Requests      int     `json:"requests"`
	Cell          int     `json:"cell,omitempty"`
}

// Span is one sampled request's reconstructed lifetime.
type Span struct {
	// ID is the globally unique span ID minted at sampling time (cluster
	// runs namespace IDs per cell, so merged streams never collide).
	ID int64 `json:"id"`
	// Class is the request's service class.
	Class clients.Class `json:"class"`
	// Item is the requested catalog rank (constant for the span's life:
	// only globally replicated items can follow a roaming client).
	Item int `json:"item"`
	// Verdict is the admission verdict at arrival: "pull", "push", "cache".
	Verdict trace.Reason `json:"verdict"`
	// Outcome is the terminal taxonomy ("served", "expired", "blocked",
	// "failed", "shed", "uplink-lost", "refused-*", ...); ReasonNone while
	// Open.
	Outcome trace.Reason `json:"outcome,omitempty"`
	// Start is the request arrival, End the terminal time (last observed
	// event time while Open).
	Start float64 `json:"start"`
	End   float64 `json:"end"`
	// Push reports a push-served delivery (served outcomes only).
	Push bool `json:"push,omitempty"`
	// Open marks a span with no terminal in the stream (request still
	// pending at the horizon).
	Open bool `json:"open,omitempty"`
	// Cells lists the cells visited, origin first.
	Cells []int `json:"cells,omitempty"`
	// Segments are the contiguous child intervals tiling [Start, End].
	Segments []Segment `json:"segments,omitempty"`
	// Enqueues and Decisions are the scheduler provenance attached to the
	// span, in event order.
	Enqueues  []Enqueue  `json:"enqueues,omitempty"`
	Decisions []Decision `json:"decisions,omitempty"`
	// Retries counts re-requests, Losses corrupted deliveries.
	Retries int `json:"retries,omitempty"`
	Losses  int `json:"losses,omitempty"`
}

// Delay returns the span's effective delay End − Start.
func (s *Span) Delay() float64 { return s.End - s.Start }

// builder accumulates one span during the fold.
type builder struct {
	span    Span
	cursor  float64 // start of the segment currently accumulating
	mode    string  // kind the current segment will close as
	curCell int
	// attachT is the time of the last span-attach processed, used to
	// absorb stream-merge ties: at a cluster barrier the origin cell's
	// span-handoff and the destination cell's same-instant events carry
	// the same timestamp, and MergeByTime breaks the tie by cell index,
	// which can place the destination's events first.
	attachT float64
	hasAtt  bool
	// prev and next link the open spans of one item (Builder.items).
	prev, next *builder
}

// closeSegment closes [b.cursor, to] as kind and moves the cursor.
// Zero-length segments are skipped: events at the same instant (start +
// enqueue, loss + terminal) would otherwise litter the tree.
func (b *builder) closeSegment(kind string, to float64, attempt int) {
	if to > b.cursor {
		b.forceSegment(kind, to, attempt)
		return
	}
	b.cursor = to
}

// forceSegment closes [b.cursor, to] as kind even when zero-length — the
// delivering service segment is always kept, so every served span shows
// its delivery (a cache hit or a roamer attaching at a broadcast's final
// instant serves in zero time).
func (b *builder) forceSegment(kind string, to float64, attempt int) {
	b.span.Segments = append(b.span.Segments, Segment{
		Kind: kind, From: b.cursor, To: to, Cell: b.curCell, Attempt: attempt,
	})
	b.cursor = to
}

// Builder folds a trace event stream into spans one event at a time and
// hands each span to a callback when its span-end arrives. It holds only
// the open spans, indexed by ID and by item, plus the spans closed at the
// current instant (for the merge-tie rule in Add), so its memory grows
// with the pending sampled requests, not with the run length. Build and
// Ring are both this fold.
type Builder struct {
	open    map[int64]*builder
	items   map[int]*builder // head of each item's list of open spans
	closed  []*builder       // spans closed at instant now
	now     float64
	onClose func(*Span)
}

// NewBuilder returns an empty Builder that passes each span to onClose as
// it closes.
func NewBuilder(onClose func(*Span)) *Builder {
	return &Builder{open: make(map[int64]*builder), items: make(map[int]*builder), onClose: onClose}
}

// Add folds one event. Events must arrive in nondecreasing time order, as
// the engine emits them and MergeByTime preserves; events that belong to
// no span are ignored. A malformed event — a span-start reusing an open
// ID, an event for a span that is not open, an unexpected kind — is
// rejected with an error and leaves every span as it was.
func (bd *Builder) Add(e trace.Event) error {
	if e.Kind == trace.KindDecision {
		// Decisions carry no span ID (one extraction serves every pending
		// request of the item): attach to each open span of that item
		// queued in that cell.
		for b := bd.items[e.Item]; b != nil; b = b.next {
			if b.mode == SegQueueWait && b.curCell == e.Cell {
				b.span.Decisions = append(b.span.Decisions, Decision{
					T: e.T, Item: e.Item, Score: float64(e.Score),
					RunnerUp: e.RunnerUp, RunnerUpScore: float64(e.RunnerUpScore),
					Requests: e.Requests, Cell: e.Cell,
				})
			}
		}
		return nil
	}
	if e.Req == 0 {
		return nil // not a span event
	}
	if e.T > bd.now {
		clear(bd.closed)
		bd.closed, bd.now = bd.closed[:0], e.T
	}
	b := bd.open[e.Req]
	if e.Kind == trace.KindSpanStart {
		if b != nil {
			return fmt.Errorf("duplicate span-start for span %d", e.Req)
		}
		bd.start(e)
		return nil
	}
	if b == nil {
		// A span refused at a barrier closes in the destination cell's
		// stream; the origin's same-instant span-handoff can merge in
		// after it (tie broken by cell index). The zero-length transit it
		// would have opened was already elided — drop it.
		for _, c := range bd.closed {
			if c.span.ID == e.Req && e.Kind == trace.KindSpanHandoff && e.T == c.span.End && c.span.Outcome.IsRefused() {
				return nil
			}
		}
		return fmt.Errorf("%s for span %d, which is not open", e.Kind, e.Req)
	}
	switch e.Kind {
	case trace.KindSpanEnqueue:
		b.closeSegment(b.mode, e.T, 0)
		b.mode = SegQueueWait
		b.span.Enqueues = append(b.span.Enqueues, Enqueue{
			T: e.T, Score: float64(e.Score), Requests: e.Requests, Cell: e.Cell,
		})
	case trace.KindSpanLoss:
		// The corrupted transmission: wait up to its start, then the
		// failed service interval. What follows is backoff (or an
		// immediate terminal at the same instant).
		b.closeSegment(b.mode, e.Start, 0)
		b.closeSegment(SegFailedService, e.T, e.Attempt)
		b.mode = SegRetryBackoff
		b.span.Losses++
	case trace.KindSpanRetry:
		// The re-request instant: whatever ran since the last event was
		// backoff, regardless of mode (an uplink loss books a retry
		// without an intervening span-loss).
		b.closeSegment(SegRetryBackoff, e.T, 0)
		b.mode = SegRetryBackoff
		b.span.Retries++
	case trace.KindSpanHandoff:
		// Unless the destination's span-attach merged in ahead of this
		// handoff with zero attach delay (barrier tie), which already
		// placed the transit boundary.
		if !b.hasAtt || b.attachT != e.T {
			b.closeSegment(b.mode, e.T, 0)
			b.mode = SegTransit
		}
	case trace.KindSpanAttach:
		if b.mode != SegTransit {
			// Zero attach delay, destination stream merged first: the
			// wait segment closes here and the transit is zero-length.
			b.closeSegment(b.mode, e.T, 0)
		} else {
			b.closeSegment(SegTransit, e.T, 0)
		}
		b.attachT, b.hasAtt = e.T, true
		b.curCell = e.Cell
		b.span.Cells = append(b.span.Cells, e.Cell)
		b.mode = startMode(e.Reason)
	case trace.KindSpanEnd:
		if e.Reason == trace.EndServed || (e.Reason == trace.EndExpired && e.Start > 0) {
			// A delivery happened: split the final wait from the service
			// interval at the recorded transmission start. The service
			// segment is forced even when zero-length (cache hit; roamer
			// attaching at a broadcast's final instant) so every delivery
			// is visible in the tree.
			b.closeSegment(b.mode, e.Start, 0)
			b.forceSegment(SegService, e.T, 0)
		} else {
			b.closeSegment(b.mode, e.T, 0)
		}
		b.span.Outcome, b.span.Push, b.span.Open, b.span.End = e.Reason, e.Push, false, e.T
		bd.close(b)
		return nil
	default:
		return fmt.Errorf("unexpected kind %q carrying span %d", e.Kind, e.Req)
	}
	b.span.End = e.T
	return nil
}

// start opens a span and pushes it onto its item's list.
func (bd *Builder) start(e trace.Event) {
	b := &builder{
		span: Span{
			ID: e.Req, Class: e.Class, Item: e.Item,
			Verdict: e.Reason, Start: e.T, End: e.T, Open: true,
			Cells: []int{e.Cell},
		},
		cursor:  e.T,
		curCell: e.Cell,
		mode:    startMode(e.Reason),
	}
	if head := bd.items[e.Item]; head != nil {
		head.prev, b.next = b, head
	}
	bd.items[e.Item] = b
	bd.open[e.Req] = b
}

// close unlinks a span from its item's list, keeps it for the rest of the
// instant and hands it to the callback.
func (bd *Builder) close(b *builder) {
	switch {
	case b.prev != nil:
		b.prev.next = b.next
	case b.next != nil:
		bd.items[b.span.Item] = b.next
	default:
		delete(bd.items, b.span.Item)
	}
	if b.next != nil {
		b.next.prev = b.prev
	}
	b.prev, b.next = nil, nil
	delete(bd.open, b.span.ID)
	bd.closed = append(bd.closed, b)
	bd.onClose(&b.span)
}

// Build reconstructs every sampled request's span from a trace event
// stream (single-cell or cluster-merged; events must be in nondecreasing
// time order, as the engine emits them and MergeByTime preserves). Spans
// are returned sorted by start time, ties by ID. Requests with no terminal
// event are returned Open. A span-start that reuses any earlier span's ID
// is rejected.
func Build(events []trace.Event) ([]*Span, error) {
	var out []*Span
	bd := NewBuilder(func(sp *Span) { out = append(out, sp) })
	started := make(map[int64]bool)
	for i, e := range events {
		if e.Kind == trace.KindSpanStart && e.Req != 0 {
			if started[e.Req] {
				return nil, fmt.Errorf("span: event %d: duplicate span-start for span %d", i, e.Req)
			}
			started[e.Req] = true
		}
		if err := bd.Add(e); err != nil {
			return nil, fmt.Errorf("span: event %d: %w", i, err)
		}
	}
	for _, b := range bd.open {
		out = append(out, &b.span)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].ID < out[j].ID
	})
	return out, nil
}

// startMode maps the admission verdict onto the first segment's kind.
func startMode(verdict trace.Reason) string {
	if verdict == trace.VerdictPush {
		return SegPushWait
	}
	return SegQueueWait
}

// tilingTolerance absorbs float addition drift when comparing the summed
// segment durations against the span delay; segment boundaries themselves
// are exact (each To is the next From by construction, checked exactly).
const tilingTolerance = 1e-6

// Verify audits every closed span against the engine's contract: segments
// are contiguous, start at the request arrival, end at the terminal, each
// has nonnegative duration, their durations sum to the effective delay,
// and served spans contain a service segment. Open spans are skipped
// (their tail segment is still accumulating). It returns the first
// violation found.
func Verify(spans []*Span) error {
	for _, sp := range spans {
		if sp.Open {
			continue
		}
		if sp.Outcome == trace.ReasonNone {
			return fmt.Errorf("span %d: closed without an outcome", sp.ID)
		}
		cursor := sp.Start
		var sum float64
		for i, seg := range sp.Segments {
			if seg.From != cursor {
				return fmt.Errorf("span %d: segment %d (%s) starts at %g, want %g (gap or overlap)", sp.ID, i, seg.Kind, seg.From, cursor)
			}
			if seg.To < seg.From {
				return fmt.Errorf("span %d: segment %d (%s) has negative duration [%g,%g]", sp.ID, i, seg.Kind, seg.From, seg.To)
			}
			cursor = seg.To
			sum += seg.Duration()
		}
		if cursor != sp.End {
			return fmt.Errorf("span %d: segments end at %g, want terminal %g", sp.ID, cursor, sp.End)
		}
		if d := sp.Delay(); sum < d-tilingTolerance || sum > d+tilingTolerance {
			return fmt.Errorf("span %d: segment durations sum to %g, want effective delay %g", sp.ID, sum, d)
		}
		if sp.Outcome == trace.EndServed {
			served := false
			for _, seg := range sp.Segments {
				if seg.Kind == SegService {
					served = true
					break
				}
			}
			// The builder forces the delivering segment even when it is
			// zero-length, so every served span must carry one.
			if !served {
				return fmt.Errorf("span %d: served but no service segment", sp.ID)
			}
		}
	}
	return nil
}
