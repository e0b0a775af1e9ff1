package span

import (
	"encoding/json"
	"fmt"
	"io"

	"hybridqos/internal/trace"
)

// One broadcast unit is rendered as one millisecond: the Chrome trace-event
// ts/dur fields are microseconds, so simulated times are scaled by 1e3.
const perfettoUnitMicros = 1e3

// perfettoEvent is one Chrome trace-event record. Only the fields the
// format requires (plus args) are emitted; Perfetto and chrome://tracing
// both accept the JSON object form.
type perfettoEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int64          `json:"tid"`
	Cat  string         `json:"cat,omitempty"`
	ID   string         `json:"id,omitempty"`
	BP   string         `json:"bp,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// perfettoFile is the JSON-object trace container.
type perfettoFile struct {
	TraceEvents     []perfettoEvent `json:"traceEvents"`
	DisplayTimeUnit string          `json:"displayTimeUnit"`
}

// WritePerfetto renders spans as Chrome trace-event JSON loadable in
// Perfetto (ui.perfetto.dev) or chrome://tracing. Each cell becomes a
// process (pid), each span a track (tid) carrying a complete ("X") event
// for the request lifetime with its segments nested inside; cross-cell
// transits additionally emit a flow arrow ("s"/"f") binding the origin and
// destination tracks. Output is deterministic: same spans, same bytes.
func WritePerfetto(w io.Writer, spans []*Span) error {
	file := perfettoFile{DisplayTimeUnit: "ms", TraceEvents: []perfettoEvent{}}
	for _, sp := range spans {
		origin := 0
		if len(sp.Cells) > 0 {
			origin = sp.Cells[0]
		}
		rootArgs := map[string]any{
			"span":    sp.ID,
			"class":   int(sp.Class),
			"item":    sp.Item,
			"verdict": sp.Verdict.String(),
		}
		if sp.Outcome != trace.ReasonNone {
			rootArgs["outcome"] = sp.Outcome.String()
		}
		if sp.Open {
			rootArgs["open"] = true
		}
		if sp.Retries > 0 {
			rootArgs["retries"] = sp.Retries
		}
		file.TraceEvents = append(file.TraceEvents, perfettoEvent{
			Name: "request", Ph: "X", Cat: "span",
			Ts: sp.Start * perfettoUnitMicros, Dur: sp.Delay() * perfettoUnitMicros,
			Pid: origin, Tid: sp.ID, Args: rootArgs,
		})
		for _, seg := range sp.Segments {
			args := map[string]any{"span": sp.ID}
			if seg.Attempt > 0 {
				args["attempt"] = seg.Attempt
			}
			file.TraceEvents = append(file.TraceEvents, perfettoEvent{
				Name: seg.Kind, Ph: "X", Cat: "segment",
				Ts: seg.From * perfettoUnitMicros, Dur: seg.Duration() * perfettoUnitMicros,
				Pid: seg.Cell, Tid: sp.ID, Args: args,
			})
			if seg.Kind == SegTransit {
				// The flow arrow binds the origin track to wherever the
				// span continues (destination cell or refusal terminal).
				id := fmt.Sprintf("%d", sp.ID)
				file.TraceEvents = append(file.TraceEvents,
					perfettoEvent{Name: "handoff", Ph: "s", Cat: "handoff",
						Ts: seg.From * perfettoUnitMicros, Pid: seg.Cell, Tid: sp.ID, ID: id},
					perfettoEvent{Name: "handoff", Ph: "f", BP: "e", Cat: "handoff",
						Ts: seg.To * perfettoUnitMicros, Pid: cellAfter(sp, seg), Tid: sp.ID, ID: id},
				)
			}
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(file)
}

// cellAfter returns the cell a transit segment lands in: the next
// segment's cell, or the transit's own origin when the span ends in
// transit (refused or still roaming at the horizon).
func cellAfter(sp *Span, transit Segment) int {
	for _, seg := range sp.Segments {
		if seg.From >= transit.To && seg.Kind != SegTransit {
			return seg.Cell
		}
	}
	if n := len(sp.Cells); n > 0 {
		return sp.Cells[n-1]
	}
	return transit.Cell
}

// ValidatePerfetto parses Chrome trace-event JSON and checks the schema
// invariants the exporters promise: a traceEvents array whose records all
// carry name, a known phase, finite ts, pid and tid; complete events
// additionally carry a nonnegative dur. It returns the first violation —
// the CI smoke test and `traceinfo -validate-perfetto` gate on it.
//
//lint:allow deadcode oracle: the Perfetto schema check that export tests validate output against
func ValidatePerfetto(data []byte) error {
	var file struct {
		TraceEvents []map[string]json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		return fmt.Errorf("span: perfetto JSON: %w", err)
	}
	if file.TraceEvents == nil {
		return fmt.Errorf("span: perfetto JSON: missing traceEvents array")
	}
	for i, ev := range file.TraceEvents {
		var name, ph string
		if err := requireString(ev, "name", &name); err != nil {
			return fmt.Errorf("span: perfetto event %d: %w", i, err)
		}
		if err := requireString(ev, "ph", &ph); err != nil {
			return fmt.Errorf("span: perfetto event %d: %w", i, err)
		}
		switch ph {
		case "X", "B", "E", "s", "t", "f", "i", "M", "C":
		default:
			return fmt.Errorf("span: perfetto event %d: unknown phase %q", i, ph)
		}
		var ts float64
		if err := requireNumber(ev, "ts", &ts); err != nil {
			return fmt.Errorf("span: perfetto event %d: %w", i, err)
		}
		for _, key := range []string{"pid", "tid"} {
			if _, ok := ev[key]; !ok {
				return fmt.Errorf("span: perfetto event %d: missing %s", i, key)
			}
		}
		if ph == "X" {
			var dur float64
			if err := requireNumber(ev, "dur", &dur); err == nil {
				if dur < 0 {
					return fmt.Errorf("span: perfetto event %d: negative dur %g", i, dur)
				}
			} else if _, present := ev["dur"]; present {
				return fmt.Errorf("span: perfetto event %d: %w", i, err)
			}
			// A complete event with no dur field is a zero-duration slice
			// (the encoder omits dur 0); that is valid.
		}
	}
	return nil
}

func requireString(ev map[string]json.RawMessage, key string, out *string) error {
	raw, ok := ev[key]
	if !ok {
		return fmt.Errorf("missing %s", key)
	}
	if err := json.Unmarshal(raw, out); err != nil {
		return fmt.Errorf("%s not a string: %w", key, err)
	}
	return nil
}

func requireNumber(ev map[string]json.RawMessage, key string, out *float64) error {
	raw, ok := ev[key]
	if !ok {
		return fmt.Errorf("missing %s", key)
	}
	if err := json.Unmarshal(raw, out); err != nil {
		return fmt.Errorf("%s not a number: %w", key, err)
	}
	return nil
}
