package span_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"

	"hybridqos/internal/catalog"
	"hybridqos/internal/clients"
	"hybridqos/internal/cluster"
	"hybridqos/internal/core"
	"hybridqos/internal/faults"
	"hybridqos/internal/span"
	"hybridqos/internal/trace"
	"hybridqos/internal/uplink"
)

// base returns a faulty, deadline-bearing engine config that exercises
// every span path: loss-driven retries, TTL expiry, uplink loss, shedding.
func base(t testing.TB) core.Config {
	t.Helper()
	cat, err := catalog.Generate(catalog.Config{
		D: 100, Theta: 0.6, MinLen: 1, MaxLen: 5,
		LengthWeights: catalog.PaperLengthWeights(), Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := clients.New(clients.PaperConfig())
	if err != nil {
		t.Fatal(err)
	}
	loss, err := faults.NewBernoulli(0.2)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := uplink.NewTokenBucket(4, 8)
	if err != nil {
		t.Fatal(err)
	}
	return core.Config{
		Catalog: cat, Classes: cl, Lambda: 5, Cutoff: 40, Alpha: 0.5,
		Horizon: 600, Seed: 11, RequestTTL: 120,
		Loss:   loss,
		Uplink: tb,
		Retry:  faults.RetryPolicy{MaxAttempts: 2, Base: 1, Multiplier: 2},
		Shed:   &faults.ShedConfig{High: 400, Low: 300},
	}
}

// run executes cfg with a buffering tracer and returns the event stream.
func run(t testing.TB, cfg core.Config) []trace.Event {
	t.Helper()
	buf := &trace.Buffer{}
	cfg.Tracer = buf
	srv, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv.Run()
	return buf.Events
}

// Reconstruction from a full-sample faulty run must verify: every closed
// span's segments tile [arrival, terminal] exactly and sum to the delay,
// and every served span's delay replays from its terminal event.
func TestBuildAndVerifyFaultyRun(t *testing.T) {
	cfg := base(t)
	cfg.Spans = &core.SpanConfig{}
	events := run(t, cfg)
	spans, err := span.Build(events)
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) == 0 {
		t.Fatal("no spans reconstructed")
	}
	if err := span.Verify(spans); err != nil {
		t.Fatal(err)
	}
	// Every sampled arrival (= every arrival at rate 1) starts a span.
	arrivals := 0
	for _, e := range events {
		if e.Kind == trace.KindArrival {
			arrivals++
		}
	}
	if len(spans) != arrivals {
		t.Fatalf("got %d spans for %d arrivals", len(spans), arrivals)
	}
	outcomes := map[trace.Reason]int{}
	withRetries, withLoss := 0, 0
	for _, sp := range spans {
		if !sp.Open {
			outcomes[sp.Outcome]++
		}
		if sp.Retries > 0 {
			withRetries++
		}
		if sp.Losses > 0 {
			withLoss++
		}
	}
	if outcomes[trace.EndServed] == 0 {
		t.Fatal("no served spans")
	}
	if withLoss == 0 || withRetries == 0 {
		t.Fatalf("fault paths not exercised: %d losses, %d retries", withLoss, withRetries)
	}
	if outcomes[trace.EndExpired] == 0 {
		t.Log("note: no expired spans in this run")
	}
}

// An expired EDF entry scores −Inf and span events carry the score: the
// JSONL trace must encode it, Read must decode the file back to the same
// events, and the spans rebuilt from the file must verify.
func TestEDFInfiniteScoresRoundTripJSONL(t *testing.T) {
	cfg := base(t)
	cfg.PullPolicyName = "edf"
	cfg.RequestTTL = 50
	cfg.Spans = &core.SpanConfig{}
	events := run(t, cfg)
	var file bytes.Buffer
	j := trace.NewJSONL(&file)
	infinite := 0
	for _, e := range events {
		if math.IsInf(float64(e.Score), -1) || math.IsInf(float64(e.RunnerUpScore), -1) {
			infinite++
		}
		j.Event(e)
	}
	if err := j.Flush(); err != nil {
		t.Fatalf("encoding the trace: %v", err)
	}
	if infinite == 0 {
		t.Fatal("no -Inf score in the run; the test no longer covers non-finite encoding")
	}
	back, err := trace.Read(&file)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(events) {
		t.Fatalf("read %d events, wrote %d", len(back), len(events))
	}
	for i := range events {
		if back[i] != events[i] {
			t.Fatalf("event %d changed in the round trip: %+v vs %+v", i, back[i], events[i])
		}
	}
	spans, err := span.Build(back)
	if err != nil {
		t.Fatal(err)
	}
	if err := span.Verify(spans); err != nil {
		t.Fatal(err)
	}
}

// A span that lost a delivery and was re-served must carry the full retry
// anatomy: wait, failed-service (with its attempt number), retry-backoff,
// then a final service segment — and still tile its lifetime exactly.
func TestRetryAfterLossSegments(t *testing.T) {
	cfg := base(t)
	cfg.Spans = &core.SpanConfig{}
	spans, err := span.Build(run(t, cfg))
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, sp := range spans {
		if sp.Outcome != trace.EndServed || sp.Losses == 0 {
			continue
		}
		kinds := map[string]int{}
		attempt := 0
		for _, seg := range sp.Segments {
			kinds[seg.Kind]++
			if seg.Kind == span.SegFailedService && seg.Attempt > attempt {
				attempt = seg.Attempt
			}
		}
		if kinds[span.SegFailedService] == 0 || kinds[span.SegService] == 0 {
			continue
		}
		if attempt < 1 {
			t.Fatalf("span %d: failed-service segment without attempt number", sp.ID)
		}
		// The delivering service segment must come after the last failure.
		last := sp.Segments[len(sp.Segments)-1]
		if last.Kind != span.SegService {
			t.Fatalf("span %d: served but final segment is %s", sp.ID, last.Kind)
		}
		found = true
		break
	}
	if !found {
		t.Fatal("no retry-after-loss span with failed-service and service segments found")
	}
}

// Per-class sampling rates must gate span creation per class and leave the
// simulation trajectory untouched: the non-span event stream is identical
// whether spans are off, fully on, or partially sampled.
func TestSamplingRatesAndTrajectoryIdentity(t *testing.T) {
	strip := func(events []trace.Event) []trace.Event {
		var out []trace.Event
		for _, e := range events {
			if e.Req == 0 && e.Kind != trace.KindDecision {
				out = append(out, e)
			}
		}
		return out
	}
	off := run(t, base(t))

	full := base(t)
	full.Spans = &core.SpanConfig{}
	fullEvents := run(t, full)

	partial := base(t)
	partial.Spans = &core.SpanConfig{Rates: []float64{1, 0.5, 0}}
	partialEvents := run(t, partial)

	for name, got := range map[string][]trace.Event{"full": fullEvents, "partial": partialEvents} {
		gs := strip(got)
		if len(gs) != len(off) {
			t.Fatalf("%s: %d non-span events, spans-off run has %d", name, len(gs), len(off))
		}
		for i := range gs {
			if gs[i] != off[i] {
				t.Fatalf("%s: event %d diverged: %+v vs %+v", name, i, gs[i], off[i])
			}
		}
	}

	spans, err := span.Build(partialEvents)
	if err != nil {
		t.Fatal(err)
	}
	if err := span.Verify(spans); err != nil {
		t.Fatal(err)
	}
	byClass := map[clients.Class]int{}
	for _, sp := range spans {
		byClass[sp.Class]++
	}
	if byClass[2] != 0 {
		t.Fatalf("class 2 sampled at rate 0 produced %d spans", byClass[2])
	}
	if byClass[0] == 0 || byClass[1] == 0 {
		t.Fatalf("expected spans for classes 0 and 1, got %v", byClass)
	}
	fullSpans, err := span.Build(fullEvents)
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) >= len(fullSpans) {
		t.Fatalf("partial sampling produced %d spans, full %d", len(spans), len(fullSpans))
	}
}

// clusterRun executes a mobile multi-cell federation with spans on and
// returns the merged cell-stamped stream.
func clusterRun(t *testing.T, ttl float64, attachDelay float64) []trace.Event {
	t.Helper()
	cat, err := catalog.Generate(catalog.Config{
		D: 60, Theta: 0.6, MinLen: 1, MaxLen: 5,
		LengthWeights: catalog.PaperLengthWeights(), Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := clients.New(clients.PaperConfig())
	if err != nil {
		t.Fatal(err)
	}
	ccl, err := cluster.New(cluster.Config{
		Cells: 3,
		Base: core.Config{
			Catalog: cat, Classes: cl, Lambda: 4, Cutoff: 20, Alpha: 0.5,
			Horizon: 400, Seed: 7, RequestTTL: ttl,
			Spans: &core.SpanConfig{},
		},
		CatalogOverlap: 0.5,
		Mobility:       cluster.Mobility{Rate: 0.02, AttachDelay: attachDelay},
		HandoffEvery:   20,
		CollectTrace:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := ccl.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res.Trace
}

// Cross-cell spans must survive MergeByTime: a roaming request's span ID
// links its origin-cell events (span-start, span-handoff) to its
// destination-cell events (span-attach, terminal), reconstructing into one
// span with a transit segment and a multi-cell path.
func TestClusterCrossCellParentLinks(t *testing.T) {
	events := clusterRun(t, 120, 5)
	spans, err := span.Build(events)
	if err != nil {
		t.Fatal(err)
	}
	if err := span.Verify(spans); err != nil {
		t.Fatal(err)
	}
	crossCell := 0
	for _, sp := range spans {
		if len(sp.Cells) < 2 {
			continue
		}
		crossCell++
		// The i-th transit segment originates in the i-th cell of the path.
		// A refused final hop adds one transit beyond the attached path (its
		// origin is the last attached cell), so count ≤ len(path).
		var transits []int
		for _, seg := range sp.Segments {
			if seg.Kind == span.SegTransit {
				transits = append(transits, seg.Cell)
			}
		}
		if len(transits) == 0 {
			t.Fatalf("span %d visited cells %v without a transit segment", sp.ID, sp.Cells)
		}
		if len(transits) > len(sp.Cells) {
			t.Fatalf("span %d: %d transit segments for path %v", sp.ID, len(transits), sp.Cells)
		}
		for i, c := range transits {
			if c != sp.Cells[i] {
				t.Fatalf("span %d: transit %d in cell %d, path %v", sp.ID, i, c, sp.Cells)
			}
		}
	}
	if crossCell == 0 {
		t.Fatal("no cross-cell spans reconstructed")
	}
	// Per-cell ID namespacing: no two spans share an ID (Build errors on
	// duplicates, but assert the namespacing directly too).
	seen := map[int64]bool{}
	for _, sp := range spans {
		if seen[sp.ID] {
			t.Fatalf("duplicate span ID %d across cells", sp.ID)
		}
		seen[sp.ID] = true
	}
}

// A deadline that expires while the request is in handoff transit must
// terminate the span at the destination with the refused-expired taxonomy,
// the transit segment closing at the refusal.
func TestDeadlineExpiryInTransit(t *testing.T) {
	// TTL 30 with attach delay 25: most roamers' remaining budget is
	// consumed in transit.
	events := clusterRun(t, 30, 25)
	spans, err := span.Build(events)
	if err != nil {
		t.Fatal(err)
	}
	if err := span.Verify(spans); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, sp := range spans {
		if sp.Outcome != trace.EndRefusedExpired {
			continue
		}
		found = true
		last := sp.Segments[len(sp.Segments)-1]
		if last.Kind != span.SegTransit {
			t.Fatalf("span %d: refused-expired but final segment is %s", sp.ID, last.Kind)
		}
		if last.Duration() <= 0 {
			t.Fatalf("span %d: refused-expired with empty transit", sp.ID)
		}
	}
	if !found {
		t.Fatal("no refused-expired span found")
	}
}

// Decision provenance: spans served from the pull queue must carry the
// extraction decision that selected them, with the winning score present
// and the runner-up distinct from the winner when one existed.
func TestDecisionProvenance(t *testing.T) {
	cfg := base(t)
	cfg.Spans = &core.SpanConfig{}
	spans, err := span.Build(run(t, cfg))
	if err != nil {
		t.Fatal(err)
	}
	withDecision := 0
	for _, sp := range spans {
		for _, d := range sp.Decisions {
			withDecision++
			if d.Item != sp.Item {
				t.Fatalf("span %d (item %d): decision for item %d", sp.ID, sp.Item, d.Item)
			}
			if d.RunnerUp != 0 && d.RunnerUp == d.Item {
				t.Fatalf("span %d: runner-up equals winner %d", sp.ID, d.Item)
			}
		}
	}
	if withDecision == 0 {
		t.Fatal("no decision provenance attached to any span")
	}
}

// The Perfetto export must pass its own schema validation and keep
// cross-cell spans linked by flow events.
func TestPerfettoExport(t *testing.T) {
	spans, err := span.Build(clusterRun(t, 120, 5))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := span.WritePerfetto(&buf, spans); err != nil {
		t.Fatal(err)
	}
	if err := span.ValidatePerfetto(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	if !strings.Contains(s, `"ph":"s"`) || !strings.Contains(s, `"ph":"f"`) {
		t.Fatal("no flow events for cross-cell handoffs")
	}
	// Determinism: same spans, same bytes.
	var again bytes.Buffer
	if err := span.WritePerfetto(&again, spans); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Fatal("perfetto export not deterministic")
	}
	// Corrupted input must be rejected.
	if err := span.ValidatePerfetto([]byte(`{"traceEvents":[{"ph":"X"}]}`)); err == nil {
		t.Fatal("validation accepted an event without name/ts")
	}
	if err := span.ValidatePerfetto([]byte(`{}`)); err == nil {
		t.Fatal("validation accepted JSON without traceEvents")
	}
}

// The OTLP export must parse as the documented envelope with every child
// segment parent-linked to its root span.
func TestOTLPExport(t *testing.T) {
	cfg := base(t)
	cfg.Spans = &core.SpanConfig{}
	spans, err := span.Build(run(t, cfg))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := span.WriteOTLP(&buf, spans); err != nil {
		t.Fatal(err)
	}
	var file struct {
		ResourceSpans []struct {
			ScopeSpans []struct {
				Spans []struct {
					TraceID      string `json:"traceId"`
					SpanID       string `json:"spanId"`
					ParentSpanID string `json:"parentSpanId"`
					Name         string `json:"name"`
					Start        string `json:"startTimeUnixNano"`
					End          string `json:"endTimeUnixNano"`
				} `json:"spans"`
			} `json:"scopeSpans"`
		} `json:"resourceSpans"`
	}
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		t.Fatal(err)
	}
	all := file.ResourceSpans[0].ScopeSpans[0].Spans
	roots := map[string]bool{}
	ids := map[string]bool{}
	for _, s := range all {
		if len(s.TraceID) != 32 || len(s.SpanID) != 16 {
			t.Fatalf("bad ID lengths: trace %q span %q", s.TraceID, s.SpanID)
		}
		if ids[s.SpanID] {
			t.Fatalf("duplicate OTLP span ID %s", s.SpanID)
		}
		ids[s.SpanID] = true
		if s.ParentSpanID == "" {
			roots[s.SpanID] = true
		}
	}
	for _, s := range all {
		if s.ParentSpanID != "" && !roots[s.ParentSpanID] {
			t.Fatalf("segment %s has unknown parent %s", s.SpanID, s.ParentSpanID)
		}
	}
	if len(roots) != len(spans) {
		t.Fatalf("%d OTLP roots for %d spans", len(roots), len(spans))
	}
}

// Build must reject malformed streams rather than mis-assemble them, and
// name the offending event.
func TestBuildRejectsMalformedStreams(t *testing.T) {
	cases := map[string]struct {
		events []trace.Event
		index  int
	}{
		"orphan event": {index: 0, events: []trace.Event{
			{T: 1, Kind: trace.KindSpanEnd, Req: 7, Reason: trace.EndServed, Arrival: 0, Start: 0.5},
		}},
		"duplicate start": {index: 1, events: []trace.Event{
			{T: 1, Kind: trace.KindSpanStart, Req: 7, Reason: trace.VerdictPull},
			{T: 2, Kind: trace.KindSpanStart, Req: 7, Reason: trace.VerdictPull},
		}},
		"event after terminal": {index: 2, events: []trace.Event{
			{T: 1, Kind: trace.KindSpanStart, Req: 7, Reason: trace.VerdictPull},
			{T: 2, Kind: trace.KindSpanEnd, Req: 7, Reason: trace.EndShed, Arrival: 1},
			{T: 3, Kind: trace.KindSpanRetry, Req: 7},
		}},
		"start after terminal": {index: 2, events: []trace.Event{
			{T: 1, Kind: trace.KindSpanStart, Req: 7, Reason: trace.VerdictPull},
			{T: 2, Kind: trace.KindSpanEnd, Req: 7, Reason: trace.EndShed, Arrival: 1},
			{T: 3, Kind: trace.KindSpanStart, Req: 7, Reason: trace.VerdictPull},
		}},
		"unexpected kind": {index: 1, events: []trace.Event{
			{T: 1, Kind: trace.KindSpanStart, Req: 7, Reason: trace.VerdictPull},
			{T: 2, Kind: trace.KindServed, Req: 7},
		}},
	}
	for name, c := range cases {
		_, err := span.Build(c.events)
		if err == nil {
			t.Errorf("%s: Build accepted the stream", name)
		} else if want := fmt.Sprintf("span: event %d:", c.index); !strings.HasPrefix(err.Error(), want) {
			t.Errorf("%s: error %q does not name event %d", name, err, c.index)
		}
	}
}

// Open spans (requests still pending at the horizon) are reported as such
// and skipped by Verify.
func TestOpenSpans(t *testing.T) {
	events := []trace.Event{
		{T: 1, Kind: trace.KindSpanStart, Req: 7, Item: 50, Reason: trace.VerdictPull},
		{T: 1, Kind: trace.KindSpanEnqueue, Req: 7, Item: 50, Score: 2.5, Requests: 1},
	}
	spans, err := span.Build(events)
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != 1 || !spans[0].Open || spans[0].Outcome != trace.ReasonNone {
		t.Fatalf("unexpected reconstruction: %+v", spans[0])
	}
	if err := span.Verify(spans); err != nil {
		t.Fatal(err)
	}
}

// fuzzKinds are the kinds FuzzBuild draws from, by 3-bit code: every span
// kind plus decision.
var fuzzKinds = [8]trace.Kind{
	trace.KindSpanStart, trace.KindSpanEnqueue, trace.KindDecision, trace.KindSpanLoss,
	trace.KindSpanRetry, trace.KindSpanHandoff, trace.KindSpanAttach, trace.KindSpanEnd,
}

// decodeEvents turns fuzz input into a short span event stream in
// nondecreasing time, four bytes an event: kind (3 bits) and reason (5
// bits); span ID 1–4, item 1–2, cell 0–1, time step 0–3 and push; the
// transmission start's lag behind T and the attempt; score and requests.
func decodeEvents(data []byte) []trace.Event {
	var events []trace.Event
	t := 0.0
	for ; len(data) >= 4; data = data[4:] {
		k, who, lag, score := data[0], data[1], data[2], data[3]
		t += float64(who >> 4 & 3)
		e := trace.Event{
			T: t, Kind: fuzzKinds[k&7], Reason: trace.Reason(k >> 3),
			Req: int64(who&3) + 1, Item: int(who>>2&1) + 1, Cell: int(who >> 3 & 1), Push: who>>7 == 1,
			Start: t - float64(lag&7)/4, Attempt: int(lag >> 3 & 3),
			Score: trace.Score(score & 15), Requests: int(score >> 4),
		}
		if e.Kind == trace.KindDecision {
			e.Req, e.RunnerUp = 0, 3-e.Item
		}
		events = append(events, e)
	}
	return events
}

// encodeEvents folds up to n events of a real stream into decodeEvents'
// format: the first four spans started become IDs 1–4 (other spans and
// decisions on other items are dropped), items fold to 1–2 by parity, and
// times, lags and counts are clamped to the fuzz ranges.
func encodeEvents(events []trace.Event, n int) []byte {
	ids, items := map[int64]byte{}, map[int]bool{}
	var out []byte
	prev := events[0].T
	clamp := func(x float64, hi byte) byte { return byte(math.Min(math.Max(math.Ceil(x), 0), float64(hi))) }
	for _, e := range events {
		if e.Kind == trace.KindSpanStart && len(ids) < 4 {
			ids[e.Req], items[e.Item] = byte(len(ids)), true
		}
		if _, ok := ids[e.Req]; !ok && !(e.Kind == trace.KindDecision && items[e.Item]) {
			continue
		}
		var k byte
		for k < 7 && fuzzKinds[k] != e.Kind {
			k++
		}
		who := ids[e.Req] | byte(e.Item&1)<<2 | byte(e.Cell&1)<<3 | clamp(e.T-prev, 3)<<4
		if e.Push {
			who |= 1 << 7
		}
		lag := clamp(4*(e.T-e.Start), 7) | clamp(float64(e.Attempt), 3)<<3
		if e.Kind != trace.KindSpanLoss && e.Kind != trace.KindSpanEnd {
			lag &^= 7
		}
		out = append(out, k|byte(e.Reason)<<3, who, lag, clamp(float64(e.Score), 15)|clamp(float64(e.Requests), 15)<<4)
		if prev = e.T; len(out) == 4*n {
			break
		}
	}
	return out
}

// Build must never panic on a well-ordered stream, and whenever it accepts
// one, a ring large enough for every closed span must hold exactly Build's
// closed spans: both are the same fold.
func FuzzBuild(f *testing.F) {
	cfg := base(f)
	cfg.Spans = &core.SpanConfig{}
	events := run(f, cfg)
	f.Add(encodeEvents(events, 64))
	f.Add(encodeEvents(events[len(events)/2:], 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		events := decodeEvents(data)
		spans, err := span.Build(events)
		if err != nil {
			return
		}
		_ = span.Verify(spans) // fuzzed timings may break the tiling; Verify must still not panic
		ring := span.NewRing(4)
		for _, e := range events {
			ring.Event(e)
		}
		if err := sameSpans(ring.Spans(), closedByID(spans)); err != nil {
			t.Fatal(err)
		}
	})
}
