package trace

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"

	"hybridqos/internal/clients"
	"hybridqos/internal/telemetry"
)

// oracleEvent is Event as it was laid out when its field order was the
// JSON order and encoding/json wrote the wire bytes: the oracle the append
// encoder must reproduce byte for byte.
type oracleEvent struct {
	T             float64             `json:"t"`
	Kind          Kind                `json:"kind"`
	Item          int                 `json:"item,omitempty"`
	Class         clients.Class       `json:"class"`
	Arrival       float64             `json:"arrival,omitempty"`
	Requests      int                 `json:"requests,omitempty"`
	Push          bool                `json:"push,omitempty"`
	Attempt       int                 `json:"attempt,omitempty"`
	Cell          int                 `json:"cell,omitempty"`
	Reason        Reason              `json:"reason,omitempty"`
	Req           int64               `json:"req,omitempty"`
	Score         oracleScore         `json:"score,omitempty"`
	RunnerUp      int                 `json:"runner_up,omitempty"`
	RunnerUpScore oracleScore         `json:"runner_up_score,omitempty"`
	Start         float64             `json:"start,omitempty"`
	Snap          *telemetry.Snapshot `json:"snap,omitempty"`
}

// oracleScore is Score as encoding/json encoded it: ±Inf as strings, a
// finite score as a float64, NaN an error.
type oracleScore float64

func (s oracleScore) MarshalJSON() ([]byte, error) {
	switch {
	case math.IsInf(float64(s), 1):
		return []byte(`"+Inf"`), nil
	case math.IsInf(float64(s), -1):
		return []byte(`"-Inf"`), nil
	}
	return json.Marshal(float64(s))
}

func oracleOf(e Event) oracleEvent {
	return oracleEvent{
		T: e.T, Kind: e.Kind, Item: e.Item, Class: e.Class, Arrival: e.Arrival,
		Requests: int(e.Requests), Push: e.Push, Attempt: e.Attempt, Cell: int(e.Cell),
		Reason: e.Reason, Req: e.Req, Score: oracleScore(e.Score), RunnerUp: int(e.RunnerUp),
		RunnerUpScore: oracleScore(e.RunnerUpScore), Start: e.Start, Snap: e.Snap,
	}
}

// oracleLine is the line json.Encoder wrote for e, or an error where it
// refused e.
func oracleLine(e Event) ([]byte, error) {
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(oracleOf(e))
	return buf.Bytes(), err
}

// jsonlLine is the line JSONL writes for e, and its sticky error.
func jsonlLine(e Event) ([]byte, error) {
	var buf bytes.Buffer
	j := NewJSONL(&buf)
	j.Event(e)
	err := j.Flush()
	return buf.Bytes(), err
}

// checkEncoding requires JSONL and json.Marshal to write e exactly as the
// oracle did (or to fail where it failed), and Read to give e back.
func checkEncoding(t *testing.T, e Event) {
	t.Helper()
	want, wantErr := oracleLine(e)
	got, err := jsonlLine(e)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("%+v: JSONL error %v, encoding/json error %v", e, err, wantErr)
	}
	if err != nil {
		if len(got) != 0 {
			t.Fatalf("%+v: JSONL wrote %q for an event it refused", e, got)
		}
		if _, err := json.Marshal(e); err == nil {
			t.Fatalf("%+v: json.Marshal accepted an event JSONL refused", e)
		}
		return
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%+v:\nJSONL         %s\nencoding/json %s", e, got, want)
	}
	if m, err := json.Marshal(e); err != nil || !bytes.Equal(append(m, '\n'), want) {
		t.Fatalf("%+v: json.Marshal %s, %v; want %s", e, m, err, want)
	}
	back, err := Read(bytes.NewReader(got))
	if err != nil || len(back) != 1 {
		t.Fatalf("%s: Read = %d events, %v", got, len(back), err)
	}
	b, wantSnap := back[0], e.Snap
	if !reflect.DeepEqual(b.Snap, wantSnap) {
		t.Fatalf("%s: snapshot decoded to %+v, want %+v", got, b.Snap, wantSnap)
	}
	b.Snap, e.Snap = nil, nil
	if b != e {
		t.Fatalf("%s: decoded to %+v, want %+v", got, b, e)
	}
}

// encodeFloats are the float64 boundaries of encoding/json's format and of
// omitempty: zero and −0, the 'f'/'e' switch points, subnormals, the
// extremes, ±Inf and NaN.
var encodeFloats = []float64{
	0, math.Copysign(0, -1), 1, -2.5, 1e-7, 1e-6, math.Nextafter(1e-6, 0), 1e21, math.Nextafter(1e21, 0),
	-1e21, 5e-324, -5e-324, 2.2250738585072014e-308, math.MaxFloat64, -math.MaxFloat64,
	math.Inf(1), math.Inf(-1), math.NaN(),
}

// goldenSnapshot is a small non-empty telemetry snapshot.
func goldenSnapshot() *telemetry.Snapshot {
	return &telemetry.Snapshot{
		T: 40, Seq: 2, Cell: 1,
		Counters: []telemetry.CounterSnap{{Name: "arrivals", Class: 0, V: 7}},
		Gauges:   []telemetry.GaugeSnap{{Name: "queue_items", Class: -1, V: 0.5}},
	}
}

// TestEventJSONMatchesOracle runs the encoding check over every kind and
// reason code (one past the end included), every float boundary in every
// float field, and the int32 extremes.
func TestEventJSONMatchesOracle(t *testing.T) {
	for k := 0; k <= len(kindNames); k++ {
		checkEncoding(t, Event{T: 1, Kind: Kind(k), Class: -1})
	}
	for r := 0; r <= len(reasonNames); r++ {
		checkEncoding(t, Event{T: 1, Kind: KindSpanEnd, Reason: Reason(r), Req: 3})
	}
	checkEncoding(t, Event{T: 1, Kind: Kind(255), Reason: Reason(255)})
	for _, f := range encodeFloats {
		checkEncoding(t, Event{T: f, Kind: KindServed})
		checkEncoding(t, Event{T: 1, Kind: KindServed, Arrival: f})
		checkEncoding(t, Event{T: 1, Kind: KindSpanEnd, Start: f})
		checkEncoding(t, Event{T: 1, Kind: KindDecision, Score: Score(f), RunnerUpScore: Score(-f)})
	}
	for _, n := range []int32{math.MinInt32, -1, 1, math.MaxInt32} {
		checkEncoding(t, Event{T: 2, Kind: KindDecision, Requests: n, Cell: n, RunnerUp: n})
	}
	checkEncoding(t, Event{
		T: 3.25, Kind: KindSnapshot, Item: math.MinInt, Class: math.MaxInt, Attempt: math.MaxInt,
		Req: math.MinInt64, Push: true, Snap: goldenSnapshot(),
	})
}

// FuzzEventJSON: for any event, JSONL's bytes equal encoding/json's on the
// old struct layout, both refuse the same events, and Read decodes the
// line back to the same event.
func FuzzEventJSON(f *testing.F) {
	f.Add(1.5, uint8(KindArrival), 42, 1, 0.0, int32(0), false, 0, int32(0), uint8(0), int64(0), 0.0, int32(0), 0.0, 0.0, false)
	f.Add(2.5, uint8(KindServed), 0, 0, 1.5, int32(0), true, 0, int32(2), uint8(0), int64(0), 0.0, int32(0), 0.0, 0.0, false)
	f.Add(3.0, uint8(KindDecision), 7, 2, 0.0, int32(4), false, 0, int32(1), uint8(0), int64(0), math.Inf(-1), int32(9), 0.25, 0.0, false)
	f.Add(4.0, uint8(KindSpanEnd), 7, 2, 1.0, int32(0), false, 2, int32(0), uint8(EndServed), int64(1)<<40, 0.0, int32(0), 0.0, 3.5, false)
	f.Add(5.0, uint8(KindSnapshot), 0, -1, 0.0, int32(0), false, 0, int32(0), uint8(0), int64(0), 0.0, int32(0), 0.0, 0.0, true)
	f.Add(math.Copysign(0, -1), uint8(len(kindNames)), 0, 0, math.Copysign(0, -1), int32(math.MinInt32), false, 0,
		int32(math.MaxInt32), uint8(len(reasonNames)), int64(0), math.NaN(), int32(-1), 1e21, 5e-324, false)
	f.Add(1e-7, uint8(KindRetry), 1, 0, math.Inf(1), int32(1), false, 1, int32(0), uint8(0), int64(0), 0.0, int32(0), 0.0, 0.0, false)
	f.Fuzz(func(t *testing.T, tm float64, kind uint8, item, class int, arrival float64, requests int32, push bool,
		attempt int, cell int32, reason uint8, req int64, score float64, runnerUp int32, runnerUpScore, start float64, snap bool) {
		e := Event{
			T: tm, Kind: Kind(kind), Item: item, Class: clients.Class(class), Arrival: arrival,
			Requests: requests, Push: push, Attempt: attempt, Cell: cell, Reason: Reason(reason), Req: req,
			Score: Score(score), RunnerUp: runnerUp, RunnerUpScore: Score(runnerUpScore), Start: start,
		}
		if snap {
			e.Snap = goldenSnapshot()
		}
		checkEncoding(t, e)
	})
}

// TestReadRejectsInt32Overflow: a requests, cell or runner_up value outside
// int32 is a decode error naming its line, never a wrapped value.
func TestReadRejectsInt32Overflow(t *testing.T) {
	for _, field := range []string{"requests", "cell", "runner_up"} {
		for _, v := range []string{"2147483648", "-2147483649", "1e10"} {
			in := `{"t":1,"kind":"decision","class":0}` + "\n\n" + `{"t":2,"kind":"decision","class":0,"` + field + `":` + v + "}\n"
			_, err := Read(strings.NewReader(in))
			if err == nil {
				t.Fatalf("%s=%s accepted", field, v)
			}
			if !strings.Contains(err.Error(), "trace: line 3:") || !strings.Contains(err.Error(), field) {
				t.Errorf("%s=%s: error %q does not name line 3 and the field", field, v, err)
			}
		}
		in := `{"t":1,"kind":"decision","class":0,"` + field + `":2147483647}`
		if _, err := Read(strings.NewReader(in)); err != nil {
			t.Errorf("%s=MaxInt32 rejected: %v", field, err)
		}
	}
}
