package span_test

import (
	"reflect"
	"testing"

	"hybridqos/internal/core"
	"hybridqos/internal/span"
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
