package span

import (
	"encoding/json"
	"fmt"
	"io"

	"hybridqos/internal/trace"
)

// One broadcast unit is rendered as one millisecond on the OTLP timeline.
const otlpUnitNanos = 1e6

// The compact OTLP-ish JSON shape: the OpenTelemetry OTLP/JSON trace
// envelope (resourceSpans → scopeSpans → spans) with the subset of span
// fields generic OTLP tooling reads — trace/span/parent IDs in hex,
// nanosecond timestamps as decimal strings, and key/value attributes.
type otlpFile struct {
	ResourceSpans []otlpResourceSpans `json:"resourceSpans"`
}

type otlpResourceSpans struct {
	Resource   otlpResource     `json:"resource"`
	ScopeSpans []otlpScopeSpans `json:"scopeSpans"`
}

type otlpResource struct {
	Attributes []otlpAttr `json:"attributes"`
}

type otlpScopeSpans struct {
	Scope otlpScope  `json:"scope"`
	Spans []otlpSpan `json:"spans"`
}

type otlpScope struct {
	Name string `json:"name"`
}

type otlpSpan struct {
	TraceID      string     `json:"traceId"`
	SpanID       string     `json:"spanId"`
	ParentSpanID string     `json:"parentSpanId,omitempty"`
	Name         string     `json:"name"`
	Kind         int        `json:"kind"`
	Start        string     `json:"startTimeUnixNano"`
	End          string     `json:"endTimeUnixNano"`
	Attributes   []otlpAttr `json:"attributes,omitempty"`
}

type otlpAttr struct {
	Key   string    `json:"key"`
	Value otlpValue `json:"value"`
}

type otlpValue struct {
	String *string `json:"stringValue,omitempty"`
	Int    *int64  `json:"intValue,omitempty"`
	Bool   *bool   `json:"boolValue,omitempty"`
}

func strAttr(key, v string) otlpAttr       { return otlpAttr{Key: key, Value: otlpValue{String: &v}} }
func intAttr(key string, v int64) otlpAttr { return otlpAttr{Key: key, Value: otlpValue{Int: &v}} }
func boolAttr(key string, v bool) otlpAttr { return otlpAttr{Key: key, Value: otlpValue{Bool: &v}} }

// otlpNanos renders a simulated time as a decimal nanosecond string (OTLP
// JSON encodes 64-bit integers as strings).
func otlpNanos(t float64) string { return fmt.Sprintf("%d", int64(t*otlpUnitNanos)) }

// otlpTraceID is the 32-hex-char trace ID: the span ID zero-extended.
func otlpTraceID(id int64) string { return fmt.Sprintf("%032x", uint64(id)) }

// otlpSpanID derives the 16-hex-char span ID for child index i (0 = the
// root). The low 48 bits of the root ID — unique across cells by the
// per-cell namespacing — are combined with a 16-bit child index, so child
// IDs never collide with roots or with other children.
func otlpSpanID(id int64, i int) string {
	return fmt.Sprintf("%012x%04x", uint64(id)&0xffffffffffff, i)
}

// WriteOTLP renders spans as compact OTLP-style JSON: one trace per
// request, the root span covering the lifetime and one child span per
// segment, parent-linked to the root. Output is deterministic.
func WriteOTLP(w io.Writer, spans []*Span) error {
	out := make([]otlpSpan, 0, len(spans)*3)
	for _, sp := range spans {
		traceID := otlpTraceID(sp.ID)
		rootID := otlpSpanID(sp.ID, 0)
		attrs := []otlpAttr{
			intAttr("qos.class", int64(sp.Class)),
			intAttr("qos.item", int64(sp.Item)),
			strAttr("qos.verdict", sp.Verdict.String()),
		}
		if sp.Outcome != trace.ReasonNone {
			attrs = append(attrs, strAttr("qos.outcome", sp.Outcome.String()))
		}
		if sp.Open {
			attrs = append(attrs, boolAttr("qos.open", true))
		}
		if sp.Push {
			attrs = append(attrs, boolAttr("qos.push", true))
		}
		if sp.Retries > 0 {
			attrs = append(attrs, intAttr("qos.retries", int64(sp.Retries)))
		}
		if len(sp.Cells) > 0 {
			attrs = append(attrs, intAttr("qos.cell", int64(sp.Cells[0])))
		}
		out = append(out, otlpSpan{
			TraceID: traceID, SpanID: rootID, Name: "request", Kind: 2, // SPAN_KIND_SERVER
			Start: otlpNanos(sp.Start), End: otlpNanos(sp.End), Attributes: attrs,
		})
		for i, seg := range sp.Segments {
			segAttrs := []otlpAttr{intAttr("qos.cell", int64(seg.Cell))}
			if seg.Attempt > 0 {
				segAttrs = append(segAttrs, intAttr("qos.attempt", int64(seg.Attempt)))
			}
			out = append(out, otlpSpan{
				TraceID: traceID, SpanID: otlpSpanID(sp.ID, i+1), ParentSpanID: rootID,
				Name: seg.Kind, Kind: 1, // SPAN_KIND_INTERNAL
				Start: otlpNanos(seg.From), End: otlpNanos(seg.To), Attributes: segAttrs,
			})
		}
	}
	file := otlpFile{ResourceSpans: []otlpResourceSpans{{
		Resource: otlpResource{Attributes: []otlpAttr{strAttr("service.name", "hybridqos")}},
		ScopeSpans: []otlpScopeSpans{{
			Scope: otlpScope{Name: "hybridqos/span"},
			Spans: out,
		}},
	}}}
	return json.NewEncoder(w).Encode(file)
}
