// Package trace provides structured event tracing for the simulator: every
// request arrival, transmission and blocking decision can be streamed to a
// JSON-lines writer for offline analysis, replayed to recompute metrics
// independently of the live collectors (a strong cross-check used in tests),
// or counted cheaply.
package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"

	"hybridqos/internal/clients"
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
func (s Score) MarshalJSON() ([]byte, error) {
	switch {
	case math.IsInf(float64(s), 1):
		return []byte(`"+Inf"`), nil
	case math.IsInf(float64(s), -1):
		return []byte(`"-Inf"`), nil
	}
	return json.Marshal(float64(s))
}

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
// of them: Kind and Reason are one-byte codes, every other field is a
// scalar, and the only pointer is Snap, set solely on the (rare) periodic
// KindSnapshot events — 128 bytes on 64-bit platforms, pinned by
// TestEventLayout. The field order is the JSON field order, so it is part
// of the wire format.
type Event struct {
	// T is the simulated time.
	T float64 `json:"t"`
	// Kind is the event type.
	Kind Kind `json:"kind"`
	// Item is the catalog rank involved (0 when not applicable).
	Item int `json:"item,omitempty"`
	// Class is the service class involved (−1 when not applicable).
	Class clients.Class `json:"class"`
	// Arrival is the request's arrival time (KindServed only).
	Arrival float64 `json:"arrival,omitempty"`
	// Requests is the pending-request count involved (transmissions/blocks).
	Requests int `json:"requests,omitempty"`
	// Push distinguishes push-served from pull-served (KindServed) and
	// push-corrupted from pull-corrupted (KindCorrupt).
	Push bool `json:"push,omitempty"`
	// Attempt is the 1-based re-request number (KindRetry only).
	Attempt int `json:"attempt,omitempty"`
	// Cell is the broadcast cell the event belongs to in multi-cell runs,
	// stamped by a Tag tracer; 0 (omitted) in single-cell runs.
	Cell int `json:"cell,omitempty"`
	// Reason qualifies KindHandoffRefused events: "expired" (deadline passed
	// in transit), "shed" (admission control), "no-item" (item absent from
	// the destination cell's catalog) or "horizon" (transit would end past
	// the simulation horizon). On span kinds it carries the admission
	// verdict (KindSpanStart/KindSpanAttach) or terminal outcome
	// (KindSpanEnd).
	Reason Reason `json:"reason,omitempty"`
	// Req is the globally unique span/request ID on span provenance events
	// (0 = not a span event). Cluster runs namespace IDs per cell so links
	// survive stream merging.
	Req int64 `json:"req,omitempty"`
	// Score is the selection score: the entry's post-add score on
	// KindSpanEnqueue, the winning score on KindDecision.
	Score Score `json:"score,omitempty"`
	// RunnerUp and RunnerUpScore identify the second-best queue entry at a
	// KindDecision extraction (0/0 when the queue held a single entry).
	RunnerUp      int   `json:"runner_up,omitempty"`
	RunnerUpScore Score `json:"runner_up_score,omitempty"`
	// Start is the service (transmission) start time on KindSpanEnd served
	// outcomes and KindSpanLoss events, so wait and service segments can be
	// split exactly during span reconstruction. Handoff origin and
	// destination cells ride on the Cell tags of the out/in events.
	Start float64 `json:"start,omitempty"`
	// Snap is the embedded telemetry snapshot (KindSnapshot only).
	Snap *telemetry.Snapshot `json:"snap,omitempty"`
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
	enc *json.Encoder
	err error
	n   int64
}

// NewJSONL wraps a writer.
func NewJSONL(w io.Writer) *JSONL {
	bw := bufio.NewWriterSize(w, 1<<16)
	return &JSONL{w: bw, enc: json.NewEncoder(bw)}
}

// Event implements Tracer. The first encoding error sticks and is reported
// by Flush.
func (j *JSONL) Event(e Event) {
	if j.err != nil {
		return
	}
	if err := j.enc.Encode(e); err != nil {
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
	Cell int
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

// Read parses a JSONL trace stream back into events.
func Read(r io.Reader) ([]Event, error) {
	dec := json.NewDecoder(r)
	var out []Event
	for dec.More() {
		var e Event
		if err := dec.Decode(&e); err != nil {
			return nil, fmt.Errorf("trace: decoding event %d: %w", len(out), err)
		}
		out = append(out, e)
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
