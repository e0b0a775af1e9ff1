// Package span reconstructs per-request span trees from the simulator's
// trace event stream. The engine (internal/core) emits span provenance
// events — span-start, span-enqueue, decision, span-loss, span-retry,
// span-handoff, span-attach, span-end — for head-sampled requests only;
// this package folds one request's events into a Span: a root covering the
// request lifetime plus contiguous child segments (queue-wait, push-wait,
// service, failed-service, retry-backoff, transit) that tile it exactly.
//
// Reconstruction is a pure function of the event stream, so spans built
// from a live tracer, a JSONL file, or a cluster's merged per-cell streams
// are identical. Verify audits the invariant the engine promises: a closed
// span's segments are contiguous, start at the request arrival, end at the
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

// builder accumulates one span during the event walk.
type builder struct {
	span    Span
	cursor  float64 // start of the segment currently accumulating
	mode    string  // kind the current segment will close as
	curCell int
	done    bool
	// attachT is the time of the last span-attach processed, used to
	// absorb stream-merge ties: at a cluster barrier the origin cell's
	// span-handoff and the destination cell's same-instant events carry
	// the same timestamp, and MergeByTime breaks the tie by cell index,
	// which can place the destination's events first.
	attachT float64
	hasAtt  bool
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

// Build reconstructs every sampled request's span from a trace event
// stream (single-cell or cluster-merged; events must be in nondecreasing
// time order, as the engine emits them and MergeByTime preserves). Spans
// are returned sorted by start time, ties by ID. Requests with no terminal
// event are returned Open.
func Build(events []trace.Event) ([]*Span, error) {
	byID := make(map[int64]*builder)
	var order []*builder // creation order: deterministic iteration (maporder)
	for i, e := range events {
		if e.Kind == trace.KindDecision {
			// Decisions carry no span ID (one extraction serves every
			// pending request of the item): attach to each open span of
			// that item queued in that cell.
			for _, b := range order {
				if b.done || b.mode != SegQueueWait || b.span.Item != e.Item || b.curCell != e.Cell {
					continue
				}
				b.span.Decisions = append(b.span.Decisions, Decision{
					T: e.T, Item: e.Item, Score: float64(e.Score),
					RunnerUp: e.RunnerUp, RunnerUpScore: float64(e.RunnerUpScore),
					Requests: e.Requests, Cell: e.Cell,
				})
			}
			continue
		}
		if e.Req == 0 {
			continue // not a span event
		}
		b := byID[e.Req]
		if e.Kind == trace.KindSpanStart {
			if b != nil {
				return nil, fmt.Errorf("span: event %d: duplicate span-start for span %d", i, e.Req)
			}
			b = &builder{
				span: Span{
					ID: e.Req, Class: e.Class, Item: e.Item,
					Verdict: e.Reason, Start: e.T, End: e.T,
					Cells: []int{e.Cell},
				},
				cursor:  e.T,
				curCell: e.Cell,
				mode:    startMode(e.Reason),
			}
			byID[e.Req] = b
			order = append(order, b)
			continue
		}
		if b == nil {
			return nil, fmt.Errorf("span: event %d: %s for unknown span %d", i, e.Kind, e.Req)
		}
		if b.done {
			// A span refused at a barrier closes in the destination cell's
			// stream; the origin's same-instant span-handoff can merge in
			// after it (tie broken by cell index). The zero-length transit
			// it would have opened was already elided — drop it.
			if e.Kind == trace.KindSpanHandoff && e.T == b.span.End && b.span.Outcome.IsRefused() {
				continue
			}
			return nil, fmt.Errorf("span: event %d: %s for closed span %d", i, e.Kind, e.Req)
		}
		b.span.End = e.T
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
			// The re-request instant: whatever ran since the last event
			// was backoff, regardless of mode (an uplink loss books a
			// retry without an intervening span-loss).
			b.closeSegment(SegRetryBackoff, e.T, 0)
			b.mode = SegRetryBackoff
			b.span.Retries++
		case trace.KindSpanHandoff:
			if b.hasAtt && b.attachT == e.T {
				// Zero attach delay: the destination's span-attach merged
				// in ahead of this handoff (barrier tie); the transit
				// boundary was already placed. Nothing to do.
				continue
			}
			b.closeSegment(b.mode, e.T, 0)
			b.mode = SegTransit
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
			if e.Reason == trace.VerdictPush {
				b.mode = SegPushWait
			} else {
				b.mode = SegQueueWait
			}
		case trace.KindSpanEnd:
			if e.Reason == trace.EndServed || (e.Reason == trace.EndExpired && e.Start > 0) {
				// A delivery happened: split the final wait from the
				// service interval at the recorded transmission start. The
				// service segment is forced even when zero-length (cache
				// hit; roamer attaching at a broadcast's final instant) so
				// every delivery is visible in the tree.
				b.closeSegment(b.mode, e.Start, 0)
				b.forceSegment(SegService, e.T, 0)
			} else {
				b.closeSegment(b.mode, e.T, 0)
			}
			b.span.Outcome = e.Reason
			b.span.Push = e.Push
			b.done = true
		default:
			return nil, fmt.Errorf("span: event %d: unexpected kind %q carrying span %d", i, e.Kind, e.Req)
		}
	}
	out := make([]*Span, 0, len(order))
	for _, b := range order {
		if !b.done {
			b.span.Open = true
		}
		sp := b.span
		out = append(out, &sp)
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
