// Package trace provides structured event tracing for the simulator: every
// request arrival, transmission and blocking decision can be streamed to a
// JSON-lines writer for offline analysis, replayed to recompute metrics
// independently of the live collectors (a strong cross-check used in tests),
// or counted cheaply.
package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"

	"hybridqos/internal/clients"
	"hybridqos/internal/jsonenc"
	"hybridqos/internal/telemetry"
)

// Kind enumerates traced event types. It is a one-byte code so Event keeps
// Snap as its only pointer; JSON carries the kind's name (String), and
// decoding rejects a name outside the table below.
type Kind uint8

// Trace event kinds; kindNames holds their wire names. The zero Kind is
// unset and named "".
const (
	KindArrival      Kind = iota + 1 // a request reached the server
	KindPushStart                    // flat broadcast transmission began
	KindPushComplete                 // broadcast finished; waiters satisfied
	KindPullStart                    // pull transmission began
	KindPullComplete                 // pull finished; pending requests satisfied
	KindBlocked                      // pull entry dropped for bandwidth
	KindServed                       // one request satisfied
	KindCorrupt                      // transmission corrupted on the lossy downlink
	KindRetry                        // client scheduled a re-request after corruption
	KindShed                         // request refused by the overload admission controller
	KindSnapshot                     // periodic telemetry snapshot (read-only; carries Snap)

	// Serving kinds (core.NewServing): outcomes only submitted requests have.
	KindExpired       // admitted request answered at its deadline, undelivered
	KindRateLimited   // request refused by its class's token bucket
	KindQuotaExceeded // request refused by its class's pending quota

	// Multi-cell kinds (internal/cluster): cross-cell client mobility.
	KindHandoff        // roaming request re-attached at this cell
	KindHandoffRefused // roaming request turned away at this cell (see Reason)

	// Span provenance kinds (internal/span): emitted only for head-sampled
	// requests when span tracing is enabled, so spans-off streams stay
	// byte-identical. They are additive provenance — Apply treats them as
	// metric no-ops (exemplars aside) because the primary kinds above
	// already carry every metric increment.
	KindSpanStart   // sampled request arrived; Reason is the admission verdict
	KindSpanEnqueue // sampled request entered the pull queue; Score is the entry's post-add score
	KindDecision    // pull extraction decision: winning and runner-up scores
	KindSpanLoss    // sampled request's transmission corrupted; Start is the transmission start
	KindSpanRetry   // sampled request re-submitted after loss backoff
	KindSpanHandoff // sampled request roamed out of this cell (Cell tags carry origin/destination)
	KindSpanAttach  // sampled request re-attached after transit; Reason is the inject verdict
	KindSpanEnd     // sampled request reached a terminal; Reason is the outcome taxonomy
)

// kindNames is the wire name of every Kind, indexed by code.
var kindNames = [...]string{
	KindArrival: "arrival", KindPushStart: "push-start", KindPushComplete: "push-complete",
	KindPullStart: "pull-start", KindPullComplete: "pull-complete", KindBlocked: "blocked",
	KindServed: "served", KindCorrupt: "corrupt", KindRetry: "retry", KindShed: "shed",
	KindSnapshot: "snapshot", KindExpired: "expired", KindRateLimited: "rate-limited",
	KindQuotaExceeded: "quota-exceeded", KindHandoff: "handoff", KindHandoffRefused: "handoff-refused",
	KindSpanStart: "span-start", KindSpanEnqueue: "span-enqueue", KindDecision: "decision",
	KindSpanLoss: "span-loss", KindSpanRetry: "span-retry", KindSpanHandoff: "span-handoff",
	KindSpanAttach: "span-attach", KindSpanEnd: "span-end",
}

// String returns the kind's wire name.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// MarshalText encodes the kind as its wire name.
func (k Kind) MarshalText() ([]byte, error) {
	if int(k) >= len(kindNames) {
		return nil, fmt.Errorf("trace: invalid kind code %d", uint8(k))
	}
	return []byte(kindNames[k]), nil
}

// UnmarshalText decodes a wire name; an unknown name is an
// *UnknownNameError.
func (k *Kind) UnmarshalText(text []byte) error {
	i, err := lookup(kindNames[:], "kind", text)
	*k = Kind(i)
	return err
}

// Reason qualifies an event: the admission verdict on KindSpanStart and
// KindSpanAttach, the terminal outcome on KindSpanEnd, and the refusal on
// KindHandoffRefused. Like Kind it is a one-byte code carried on the wire
// by name; ReasonNone is omitted from JSON.
type Reason uint8

// Reasons; reasonNames holds their wire names. A reason may serve several
// kinds: EndExpired ("expired") is also the RefusalExpired handoff refusal.
const (
	ReasonNone Reason = iota // no reason

	// Admission verdicts (KindSpanStart, KindSpanAttach).
	VerdictPull  // enqueued on the pull queue
	VerdictPush  // waiting for the item's scheduled broadcast
	VerdictCache // satisfied instantly from the client cache

	// Terminal outcomes (KindSpanEnd).
	EndServed     // delivered; Start is the service start, Arrival the request arrival
	EndExpired    // TTL/deadline passed before delivery
	EndBlocked    // pull entry dropped for bandwidth
	EndFailed     // corrupted delivery and the retry policy gave up
	EndShed       // refused by the overload admission controller
	EndUplinkLost // request lost on the uplink before reaching the server
	EndRejected   // refused by serving-mode admission control
	EndDraining   // refused because the daemon is draining

	// Handoff-refusal terminals (KindSpanEnd): a sampled roamer's span ends
	// with its refusal's name prefixed "refused-" (Reason.Refused).
	EndRefusedExpired
	EndRefusedShed
	EndRefusedHorizon
	EndRefusedNoItem

	// Handoff refusals (KindHandoffRefused) the terminal names do not
	// already cover; RefusalExpired and RefusalShed complete the set.
	RefusalHorizon // transit would end past the simulation horizon
	RefusalNoItem  // item absent from the destination cell's catalog
)

// Handoff refusals shared with the terminal taxonomy.
const (
	RefusalExpired = EndExpired // deadline passed in transit
	RefusalShed    = EndShed    // destination's admission control refused it
)

// reasonNames is the wire name of every Reason, indexed by code.
var reasonNames = [...]string{
	ReasonNone: "", VerdictPull: "pull", VerdictPush: "push", VerdictCache: "cache",
	EndServed: "served", EndExpired: "expired", EndBlocked: "blocked", EndFailed: "failed",
	EndShed: "shed", EndUplinkLost: "uplink-lost", EndRejected: "rejected", EndDraining: "draining",
	EndRefusedExpired: "refused-expired", EndRefusedShed: "refused-shed",
	EndRefusedHorizon: "refused-horizon", EndRefusedNoItem: "refused-no-item",
	RefusalHorizon: "horizon", RefusalNoItem: "no-item",
}

// String returns the reason's wire name ("" for ReasonNone).
func (r Reason) String() string {
	if int(r) < len(reasonNames) {
		return reasonNames[r]
	}
	return fmt.Sprintf("Reason(%d)", uint8(r))
}

// MarshalText encodes the reason as its wire name.
func (r Reason) MarshalText() ([]byte, error) {
	if int(r) >= len(reasonNames) {
		return nil, fmt.Errorf("trace: invalid reason code %d", uint8(r))
	}
	return []byte(reasonNames[r]), nil
}

// UnmarshalText decodes a wire name; an unknown name is an
// *UnknownNameError.
func (r *Reason) UnmarshalText(text []byte) error {
	i, err := lookup(reasonNames[:], "reason", text)
	*r = Reason(i)
	return err
}

// Refused returns the span terminal for a handoff refusal — the refusal's
// name prefixed "refused-" — and ReasonNone when r is not a handoff refusal.
func (r Reason) Refused() Reason {
	switch r {
	case RefusalExpired:
		return EndRefusedExpired
	case RefusalShed:
		return EndRefusedShed
	case RefusalHorizon:
		return EndRefusedHorizon
	case RefusalNoItem:
		return EndRefusedNoItem
	}
	return ReasonNone
}

// IsRefused reports whether r is a handoff-refusal span terminal
// ("refused-*").
func (r Reason) IsRefused() bool { return r >= EndRefusedExpired && r <= EndRefusedNoItem }

// UnknownNameError reports a kind or reason name outside the trace
// vocabulary.
type UnknownNameError struct {
	// Field is "kind" or "reason".
	Field string
	// Name is the unrecognised name.
	Name string
}

func (e *UnknownNameError) Error() string {
	return fmt.Sprintf("trace: unknown %s %q", e.Field, e.Name)
}

// lookup returns the index of text in names.
func lookup(names []string, field string, text []byte) (int, error) {
	for i, name := range names {
		if string(text) == name {
			return i, nil
		}
	}
	return 0, &UnknownNameError{Field: field, Name: string(text)}
}

// Score is a pull-queue selection score on the wire. A score may be
// infinite (an expired EDF entry scores −Inf), which a JSON number cannot
// hold, so ±Inf encode as the strings "+Inf" and "-Inf". A finite score
// encodes exactly as encoding/json encodes a float64, and NaN stays an
// encoding error.
type Score float64

// MarshalJSON implements json.Marshaler.
func (s Score) MarshalJSON() ([]byte, error) { return s.appendJSON(nil) }

// appendJSON appends the score's wire form; NaN is an error.
func (s Score) appendJSON(b []byte) ([]byte, error) {
	switch f := float64(s); {
	case math.IsInf(f, 1):
		return append(b, `"+Inf"`...), nil
	case math.IsInf(f, -1):
		return append(b, `"-Inf"`...), nil
	case math.IsNaN(f):
		return b, errNaNScore
	}
	return jsonenc.AppendFloat(b, float64(s)), nil
}

// errNaNScore rejects a NaN score, which neither a JSON number nor the
// ±Inf strings can carry.
var errNaNScore = errors.New("trace: NaN score")

// UnmarshalJSON implements json.Unmarshaler.
func (s *Score) UnmarshalJSON(data []byte) error {
	switch string(data) {
	case `"+Inf"`:
		*s = Score(math.Inf(1))
		return nil
	case `"-Inf"`:
		*s = Score(math.Inf(-1))
		return nil
	}
	return json.Unmarshal(data, (*float64)(s))
}

// Event is one trace record. Fields are compact so a run can emit millions
// of them: Kind and Reason are one-byte codes, the pending-request count,
// cell and runner-up rank are int32, every other field is an 8-byte
// scalar, and the only pointer is Snap, set solely on the (rare) periodic
// KindSnapshot events — 96 bytes on 64-bit platforms with no padding to
// speak of, pinned by TestEventLayout. The fields are ordered by size, not
// by the wire: the JSON field order and omitted zero values are set by the
// event's own encoder (MarshalJSON, JSONL), which writes
// t, kind, item, class, arrival, requests, push, attempt, cell, reason,
// req, score, runner_up, runner_up_score, start, snap
// exactly as encoding/json wrote the tagged fields in that order. Decoding
// (Read) matches fields by their tag names.
type Event struct {
	// T is the simulated time.
	T float64 `json:"t"`
	// Item is the catalog rank involved (0 when not applicable).
	Item int `json:"item,omitempty"`
	// Class is the service class involved (−1 when not applicable).
	Class clients.Class `json:"class"`
	// Arrival is the request's arrival time (KindServed only).
	Arrival float64 `json:"arrival,omitempty"`
	// Attempt is the 1-based re-request number (KindRetry only).
	Attempt int `json:"attempt,omitempty"`
	// Req is the globally unique span/request ID on span provenance events
	// (0 = not a span event). Cluster runs namespace IDs per cell so links
	// survive stream merging.
	Req int64 `json:"req,omitempty"`
	// Score is the selection score: the entry's post-add score on
	// KindSpanEnqueue, the winning score on KindDecision.
	Score Score `json:"score,omitempty"`
	// RunnerUpScore is the second-best queue entry's score at a
	// KindDecision extraction (0 when the queue held a single entry).
	RunnerUpScore Score `json:"runner_up_score,omitempty"`
	// Start is the service (transmission) start time on KindSpanEnd served
	// outcomes and KindSpanLoss events, so wait and service segments can be
	// split exactly during span reconstruction. Handoff origin and
	// destination cells ride on the Cell tags of the out/in events.
	Start float64 `json:"start,omitempty"`
	// Snap is the embedded telemetry snapshot (KindSnapshot only).
	Snap *telemetry.Snapshot `json:"snap,omitempty"`
	// Requests is the pending-request count involved (transmissions/blocks):
	// the length of one pull entry's request slice or one item's push-waiter
	// slice. It cannot pass 2³¹−1: that would be one slice of 2³¹ pending
	// requests of at least 32 bytes each, 64 GiB, in one cell.
	Requests int32 `json:"requests,omitempty"`
	// Cell is the broadcast cell the event belongs to in multi-cell runs,
	// stamped by a Tag tracer; 0 (omitted) in single-cell runs.
	// cluster.Config.Validate bounds the cell count to int32.
	Cell int32 `json:"cell,omitempty"`
	// RunnerUp is the second-best queue entry's catalog rank at a
	// KindDecision extraction (0 when the queue held a single entry).
	// catalog.Config.Validate and catalog.FromLengths bound ranks to int32.
	RunnerUp int32 `json:"runner_up,omitempty"`
	// Kind is the event type.
	Kind Kind `json:"kind"`
	// Reason qualifies KindHandoffRefused events: "expired" (deadline passed
	// in transit), "shed" (admission control), "no-item" (item absent from
	// the destination cell's catalog) or "horizon" (transit would end past
	// the simulation horizon). On span kinds it carries the admission
	// verdict (KindSpanStart/KindSpanAttach) or terminal outcome
	// (KindSpanEnd).
	Reason Reason `json:"reason,omitempty"`
	// Push distinguishes push-served from pull-served (KindServed) and
	// push-corrupted from pull-corrupted (KindCorrupt).
	Push bool `json:"push,omitempty"`
}

// MarshalJSON implements json.Marshaler with the JSONL encoder, so
// json.Marshal of an event writes the trace's wire bytes.
func (e Event) MarshalJSON() ([]byte, error) { return e.appendJSON(nil) }

// appendJSON appends e as one JSON object (no newline) in wire order.
// Zero-valued optional fields are omitted, −0 included, as encoding/json's
// omitempty omits them. It fails where encoding/json failed on the tagged
// struct: a NaN or infinite time (t, arrival, start), a NaN score, or a
// kind or reason code outside the vocabulary. Snap, set only on rare
// snapshot events, still goes through encoding/json.
func (e *Event) appendJSON(b []byte) ([]byte, error) {
	if int(e.Kind) >= len(kindNames) {
		return b, fmt.Errorf("trace: invalid kind code %d", uint8(e.Kind))
	}
	if int(e.Reason) >= len(reasonNames) {
		return b, fmt.Errorf("trace: invalid reason code %d", uint8(e.Reason))
	}
	var err error
	if b, err = appendTime(append(b, `{"t":`...), "t", e.T); err != nil {
		return b, err
	}
	b = append(append(append(b, `,"kind":"`...), kindNames[e.Kind]...), '"')
	if e.Item != 0 {
		b = strconv.AppendInt(append(b, `,"item":`...), int64(e.Item), 10)
	}
	b = strconv.AppendInt(append(b, `,"class":`...), int64(e.Class), 10)
	if e.Arrival != 0 {
		if b, err = appendTime(append(b, `,"arrival":`...), "arrival", e.Arrival); err != nil {
			return b, err
		}
	}
	if e.Requests != 0 {
		b = strconv.AppendInt(append(b, `,"requests":`...), int64(e.Requests), 10)
	}
	if e.Push {
		b = append(b, `,"push":true`...)
	}
	if e.Attempt != 0 {
		b = strconv.AppendInt(append(b, `,"attempt":`...), int64(e.Attempt), 10)
	}
	if e.Cell != 0 {
		b = strconv.AppendInt(append(b, `,"cell":`...), int64(e.Cell), 10)
	}
	if e.Reason != ReasonNone {
		b = append(append(append(b, `,"reason":"`...), reasonNames[e.Reason]...), '"')
	}
	if e.Req != 0 {
		b = strconv.AppendInt(append(b, `,"req":`...), e.Req, 10)
	}
	if e.Score != 0 {
		if b, err = e.Score.appendJSON(append(b, `,"score":`...)); err != nil {
			return b, err
		}
	}
	if e.RunnerUp != 0 {
		b = strconv.AppendInt(append(b, `,"runner_up":`...), int64(e.RunnerUp), 10)
	}
	if e.RunnerUpScore != 0 {
		if b, err = e.RunnerUpScore.appendJSON(append(b, `,"runner_up_score":`...)); err != nil {
			return b, err
		}
	}
	if e.Start != 0 {
		if b, err = appendTime(append(b, `,"start":`...), "start", e.Start); err != nil {
			return b, err
		}
	}
	if e.Snap != nil {
		snap, err := json.Marshal(e.Snap)
		if err != nil {
			return b, fmt.Errorf("trace: snap: %w", err)
		}
		b = append(append(b, `,"snap":`...), snap...)
	}
	return append(b, '}'), nil
}

// appendTime appends a finite time; a NaN or infinite one is an error, as
// it was to encoding/json.
func appendTime(b []byte, field string, f float64) ([]byte, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return b, fmt.Errorf("trace: unsupported %s value %g", field, f)
	}
	return jsonenc.AppendFloat(b, f), nil
}

// Tracer consumes events. Implementations must tolerate high event rates;
// Event is called synchronously from the simulation loop.
type Tracer interface {
	Event(e Event)
}

// Nop discards all events.
type Nop struct{}

// Event implements Tracer.
func (Nop) Event(Event) {}

// Counter tallies events by kind — cheap tracing for tests and sanity
// checks.
type Counter struct {
	counts map[Kind]int64
}

// NewCounter returns an empty Counter.
//
//lint:allow deadcode shared test fixture: the counting sink tests in several packages attach to runs
func NewCounter() *Counter { return &Counter{counts: make(map[Kind]int64)} }

// Event implements Tracer.
func (c *Counter) Event(e Event) { c.counts[e.Kind]++ }

// Count returns the tally for one kind.
//
//lint:allow deadcode shared test fixture: how core's trace and fault tests read NewCounter's tallies
func (c *Counter) Count(k Kind) int64 { return c.counts[k] }

// Total returns the total event count.
func (c *Counter) Total() int64 {
	var n int64
	//lint:allow maporder commutative integer sum; the total is independent of visit order
	for _, v := range c.counts {
		n += v
	}
	return n
}

// JSONL streams events as JSON lines. Close (or Flush) must be called to
// drain the buffer.
type JSONL struct {
	w   *bufio.Writer
	buf []byte // the line being encoded, reused across events
	err error
	n   int64
}

// NewJSONL wraps a writer.
func NewJSONL(w io.Writer) *JSONL {
	return &JSONL{w: bufio.NewWriterSize(w, 1<<16)}
}

// Event implements Tracer. An event that fails to encode writes nothing;
// the first encoding or write error sticks and is reported by Flush.
func (j *JSONL) Event(e Event) {
	if j.err != nil {
		return
	}
	b, err := e.appendJSON(j.buf[:0])
	if err == nil {
		j.buf = append(b, '\n')
		_, err = j.w.Write(j.buf)
	}
	if err != nil {
		j.err = err
		return
	}
	j.n++
}

// Events returns the number of successfully encoded events.
func (j *JSONL) Events() int64 { return j.n }

// Flush drains the buffer and returns the first error encountered.
func (j *JSONL) Flush() error {
	if j.err != nil {
		return j.err
	}
	return j.w.Flush()
}

// Tag stamps a fixed cell ID onto every event before forwarding — the
// cell-ID dimension of a multi-cell trace. Each cell wraps its own
// downstream tracer, so parallel cells never share tracer state.
type Tag struct {
	// Cell is the ID stamped onto every event.
	Cell int32
	// Next receives the stamped events.
	Next Tracer
}

// Event implements Tracer.
func (t Tag) Event(e Event) {
	e.Cell = t.Cell
	t.Next.Event(e)
}

// Buffer records events in memory, in emission order. Cluster runs give
// each cell its own Buffer during the parallel advance and merge the
// streams deterministically afterwards (MergeByTime).
type Buffer struct {
	// Events holds every recorded event.
	Events []Event
}

// minBufferCap is the capacity of a Buffer's first allocation.
const minBufferCap = 64

// Event implements Tracer. The slice doubles when full: append's growth
// drops to 1.25× for large slices, which for a long run re-allocates,
// zeroes and copies the buffer several times more than doubling does.
func (b *Buffer) Event(e Event) {
	if len(b.Events) == cap(b.Events) {
		grown := make([]Event, len(b.Events), max(2*cap(b.Events), minBufferCap))
		copy(grown, b.Events)
		b.Events = grown
	}
	b.Events = append(b.Events, e)
}

// MergeByTime merges per-cell event streams — each already in nondecreasing
// time order, as the engine emits them — into one stream ordered by time,
// ties broken by stream index then original order. The merge is a pure
// function of its inputs, so a merged multi-cell trace is as deterministic
// as the per-cell runs that produced it.
func MergeByTime(streams ...[]Event) []Event {
	total := 0
	for _, s := range streams {
		total += len(s)
	}
	out := make([]Event, 0, total)
	idx := make([]int, len(streams))
	for len(out) < total {
		best := -1
		for i, s := range streams {
			if idx[i] >= len(s) {
				continue
			}
			if best == -1 || s[idx[i]].T < streams[best][idx[best]].T {
				best = i
			}
		}
		out = append(out, streams[best][idx[best]])
		idx[best]++
	}
	return out
}

// maxLineBytes bounds one JSONL line Read accepts. Snapshot events carry
// the whole metrics registry, a few KiB per cell.
const maxLineBytes = 64 << 20

// Read parses a JSONL trace stream back into events: one JSON object per
// line, as JSONL writes them, blank lines skipped. Fields are matched by
// name, so any field order decodes. An error names the 1-based line: a
// malformed object, an unknown kind or reason name, or a requests, cell or
// runner_up value outside int32 is rejected, never wrapped.
func Read(r io.Reader) ([]Event, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), maxLineBytes)
	var out []Event
	line := 0
	for sc.Scan() {
		line++
		text := sc.Bytes()
		if len(bytes.TrimSpace(text)) == 0 {
			continue
		}
		var e Event
		if err := json.Unmarshal(text, &e); err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
		out = append(out, e)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: line %d: %w", line+1, err)
	}
	return out, nil
}

// ClassStats is the per-class aggregate recomputed from a trace.
type ClassStats struct {
	// Served counts KindServed events for the class.
	Served int64
	// SumDelay accumulates completion − arrival over served requests.
	SumDelay float64
}

// MeanDelay returns SumDelay/Served, 0 when empty.
func (cs ClassStats) MeanDelay() float64 {
	if cs.Served == 0 {
		return 0
	}
	return cs.SumDelay / float64(cs.Served)
}

// Replay recomputes per-class delay statistics from a trace — an
// independent audit of the simulator's live metric collectors. numClasses
// bounds the class index; out-of-range classes error.
func Replay(events []Event, numClasses int) ([]ClassStats, error) {
	if numClasses <= 0 {
		return nil, fmt.Errorf("trace: numClasses %d", numClasses)
	}
	out := make([]ClassStats, numClasses)
	for i, e := range events {
		if e.Kind != KindServed {
			continue
		}
		if e.Class < 0 || int(e.Class) >= numClasses {
			return nil, fmt.Errorf("trace: event %d has class %d outside [0,%d)", i, e.Class, numClasses)
		}
		out[e.Class].Served++
		out[e.Class].SumDelay += e.T - e.Arrival
	}
	return out, nil
}
