package span_test

import (
	"fmt"
	"reflect"
	"testing"

	"hybridqos/internal/core"
	"hybridqos/internal/span"
	"hybridqos/internal/trace"
)

// The live ring must reconstruct exactly the spans Build reconstructs from
// the whole stream — decisions, losses, retries and every terminal included
// — and keep the most recent completions in order when it overflows.
func TestRingMatchesBuild(t *testing.T) {
	cfg := base(t)
	cfg.Spans = &core.SpanConfig{}
	events := run(t, cfg)
	want, err := span.Build(events)
	if err != nil {
		t.Fatal(err)
	}
	closed := map[int64]*span.Span{}
	for _, sp := range want {
		if !sp.Open {
			closed[sp.ID] = sp
		}
	}

	ring := span.NewRing(len(closed))
	for _, e := range events {
		ring.Event(e)
	}
	got := ring.Spans()
	if len(got) != len(closed) {
		t.Fatalf("ring holds %d spans, Build closed %d", len(got), len(closed))
	}
	for _, sp := range got {
		if !reflect.DeepEqual(sp, closed[sp.ID]) {
			t.Fatalf("span %d differs:\n ring  %+v\n build %+v", sp.ID, sp, closed[sp.ID])
		}
	}

	small := span.NewRing(5)
	for _, e := range events {
		small.Event(e)
	}
	if tail := small.Spans(); !reflect.DeepEqual(tail, got[len(got)-5:]) {
		t.Fatalf("overflowed ring kept %v, want the last five completions", tail)
	}
}

// A malformed event is dropped without touching any span: the ring keeps
// reconstructing exactly what Build reconstructs from the clean stream.
func TestRingDropsMalformedEvents(t *testing.T) {
	cfg := base(t)
	cfg.Spans = &core.SpanConfig{}
	events := run(t, cfg)
	want, err := span.Build(events)
	if err != nil {
		t.Fatal(err)
	}
	closed := closedByID(want)

	// Just before the middle span-enqueue, pollute the stream: a second
	// start and a stray kind for that open span, then an unknown span.
	var polluted []trace.Event
	for i, e := range events {
		if i >= len(events)/2 && len(polluted) == i && e.Kind == trace.KindSpanEnqueue {
			polluted = append(polluted,
				trace.Event{T: e.T, Kind: trace.KindSpanStart, Req: e.Req, Item: e.Item, Reason: trace.VerdictPush},
				trace.Event{T: e.T, Kind: trace.KindServed, Req: e.Req, Item: e.Item},
				trace.Event{T: e.T, Kind: trace.KindSpanRetry, Req: 1 << 40, Item: e.Item},
			)
		}
		polluted = append(polluted, e)
	}
	if len(polluted) != len(events)+3 {
		t.Fatal("found no span-enqueue to pollute")
	}
	if _, err := span.Build(polluted); err == nil {
		t.Fatal("Build accepted the polluted stream")
	}

	ring := span.NewRing(len(closed))
	for _, e := range polluted {
		ring.Event(e)
	}
	got := ring.Spans()
	if err := sameSpans(got, closed); err != nil {
		t.Fatal(err)
	}
}

// closedByID indexes Build's closed spans by ID.
func closedByID(spans []*span.Span) map[int64]*span.Span {
	closed := map[int64]*span.Span{}
	for _, sp := range spans {
		if !sp.Open {
			closed[sp.ID] = sp
		}
	}
	return closed
}

// sameSpans reports how a ring's spans differ from Build's closed spans.
func sameSpans(ring []*span.Span, closed map[int64]*span.Span) error {
	if len(ring) != len(closed) {
		return fmt.Errorf("ring holds %d spans, Build closed %d", len(ring), len(closed))
	}
	for _, sp := range ring {
		if !reflect.DeepEqual(sp, closed[sp.ID]) {
			return fmt.Errorf("span %d differs:\n ring  %+v\n build %+v", sp.ID, sp, closed[sp.ID])
		}
	}
	return nil
}
