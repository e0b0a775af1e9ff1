package trace

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
	"unsafe"
)

func TestNopAcceptsEverything(t *testing.T) {
	var n Nop
	n.Event(Event{T: 1, Kind: KindArrival})
}

func TestCounter(t *testing.T) {
	c := NewCounter()
	c.Event(Event{Kind: KindArrival})
	c.Event(Event{Kind: KindArrival})
	c.Event(Event{Kind: KindServed})
	if c.Count(KindArrival) != 2 || c.Count(KindServed) != 1 {
		t.Fatalf("counts: %d, %d", c.Count(KindArrival), c.Count(KindServed))
	}
	if c.Count(KindBlocked) != 0 {
		t.Fatal("absent kind nonzero")
	}
	if c.Total() != 3 {
		t.Fatalf("Total = %d", c.Total())
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	j := NewJSONL(&buf)
	events := []Event{
		{T: 1.5, Kind: KindArrival, Item: 42, Class: 1},
		{T: 2.5, Kind: KindServed, Class: 0, Arrival: 1.5, Push: true},
		{T: 3, Kind: KindBlocked, Item: 7, Class: 2, Requests: 4},
	}
	for _, e := range events {
		j.Event(e)
	}
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}
	if j.Events() != 3 {
		t.Fatalf("Events = %d", j.Events())
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("%d events decoded", len(got))
	}
	for i := range events {
		if got[i] != events[i] {
			t.Fatalf("event %d: got %+v want %+v", i, got[i], events[i])
		}
	}
}

func TestJSONLStickyError(t *testing.T) {
	j := NewJSONL(failWriter{})
	for i := 0; i < 10000; i++ { // enough to overflow the buffer
		j.Event(Event{T: float64(i), Kind: KindArrival})
	}
	if err := j.Flush(); err == nil {
		t.Fatal("error not surfaced")
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errFail }

var errFail = &failError{}

type failError struct{}

func (*failError) Error() string { return "write failed" }

func TestReadMalformed(t *testing.T) {
	if _, err := Read(strings.NewReader(`{"t":1}{bad json`)); err == nil {
		t.Fatal("malformed stream accepted")
	}
}

func TestReplay(t *testing.T) {
	events := []Event{
		{T: 10, Kind: KindServed, Class: 0, Arrival: 4},  // delay 6
		{T: 20, Kind: KindServed, Class: 0, Arrival: 10}, // delay 10
		{T: 30, Kind: KindServed, Class: 2, Arrival: 25}, // delay 5
		{T: 99, Kind: KindArrival, Class: 1},             // ignored
	}
	stats, err := Replay(events, 3)
	if err != nil {
		t.Fatal(err)
	}
	if stats[0].Served != 2 || stats[0].MeanDelay() != 8 {
		t.Fatalf("class 0: %+v", stats[0])
	}
	if stats[1].Served != 0 || stats[1].MeanDelay() != 0 {
		t.Fatalf("class 1: %+v", stats[1])
	}
	if stats[2].Served != 1 || stats[2].MeanDelay() != 5 {
		t.Fatalf("class 2: %+v", stats[2])
	}
}

func TestReplayErrors(t *testing.T) {
	if _, err := Replay(nil, 0); err == nil {
		t.Fatal("numClasses 0 accepted")
	}
	if _, err := Replay([]Event{{Kind: KindServed, Class: 5}}, 3); err == nil {
		t.Fatal("out-of-range class accepted")
	}
}

// TestNamesRoundTrip: every Kind and Reason code has a distinct wire name
// that survives a JSON round trip, and JSONL carries the name, not the code.
func TestNamesRoundTrip(t *testing.T) {
	seen := map[string]bool{}
	for k := Kind(0); int(k) < len(kindNames); k++ {
		if seen[k.String()] {
			t.Fatalf("kind %d: duplicate name %q", k, k)
		}
		seen[k.String()] = true
		if b := roundTrip(t, Event{T: 1, Kind: k}); !strings.Contains(b, `"kind":"`+k.String()+`"`) {
			t.Fatalf("kind %d encoded as %s", k, b)
		}
	}
	seen = map[string]bool{}
	for r := Reason(0); int(r) < len(reasonNames); r++ {
		if seen[r.String()] {
			t.Fatalf("reason %d: duplicate name %q", r, r)
		}
		seen[r.String()] = true
		b := roundTrip(t, Event{T: 1, Kind: KindSpanEnd, Reason: r})
		if r == ReasonNone && strings.Contains(b, `"reason"`) ||
			r != ReasonNone && !strings.Contains(b, `"reason":"`+r.String()+`"`) {
			t.Fatalf("reason %d encoded as %s", r, b)
		}
	}
}

// roundTrip encodes e, checks Read decodes it back unchanged, and returns
// the encoding.
func roundTrip(t *testing.T, e Event) string {
	t.Helper()
	b, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Read(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != e {
		t.Fatalf("%s decoded to %+v, want %+v", b, got, e)
	}
	return string(b)
}

func TestRefusedTerminals(t *testing.T) {
	for r, want := range map[Reason]string{
		RefusalExpired: "refused-expired", RefusalShed: "refused-shed",
		RefusalHorizon: "refused-horizon", RefusalNoItem: "refused-no-item",
	} {
		end := r.Refused()
		if end.String() != want || !end.IsRefused() {
			t.Errorf("%s.Refused() = %s (refused %v), want %s", r, end, end.IsRefused(), want)
		}
	}
	if EndBlocked.Refused() != ReasonNone || EndShed.IsRefused() {
		t.Error("non-refusal reason mapped to a refused terminal")
	}
}

// TestReadRejectsUnknownNames: a kind or reason outside the vocabulary is a
// named decode error, not an opaque value carried through.
func TestReadRejectsUnknownNames(t *testing.T) {
	for _, tc := range []struct{ in, field, name string }{
		{`{"t":1,"kind":"x"}`, "kind", "x"},
		{`{"t":1,"kind":"span-end","reason":"refused-x"}`, "reason", "refused-x"},
	} {
		_, err := Read(strings.NewReader(tc.in))
		var unknown *UnknownNameError
		if !errors.As(err, &unknown) || unknown.Field != tc.field || unknown.Name != tc.name {
			t.Fatalf("%s: error %v, want unknown %s %q", tc.in, err, tc.field, tc.name)
		}
		if want := `trace: unknown ` + tc.field + ` "` + tc.name + `"`; !strings.Contains(err.Error(), want) {
			t.Fatalf("%s: error %q does not name %s", tc.in, err, want)
		}
	}
	if _, err := Read(strings.NewReader(`{"t":1,"kind":3}`)); err == nil {
		t.Fatal("numeric kind accepted")
	}
}

// TestScoreJSON: finite scores encode exactly as a float64 does, ±Inf as
// the strings "+Inf"/"-Inf" (and back), NaN stays an encoding error.
func TestScoreJSON(t *testing.T) {
	for _, v := range []float64{0.5, -3, 1e-7, 1e21, -2.5e-300, math.MaxFloat64} {
		want, _ := json.Marshal(v)
		got, err := json.Marshal(Score(v))
		if err != nil || string(got) != string(want) {
			t.Errorf("Score(%g) = %s, %v; want %s", v, got, err, want)
		}
	}
	for _, tc := range []struct {
		v    float64
		wire string
	}{{math.Inf(1), `"+Inf"`}, {math.Inf(-1), `"-Inf"`}} {
		got, err := json.Marshal(Score(tc.v))
		if err != nil || string(got) != tc.wire {
			t.Errorf("Score(%g) = %s, %v; want %s", tc.v, got, err, tc.wire)
		}
		var back Score
		if err := json.Unmarshal(got, &back); err != nil || float64(back) != tc.v {
			t.Errorf("decoding %s = %g, %v", got, back, err)
		}
	}
	if _, err := json.Marshal(Score(math.NaN())); err == nil {
		t.Error("NaN score encoded")
	}
	var s Score
	if err := json.Unmarshal([]byte(`"Inf"`), &s); err == nil {
		t.Error(`"Inf" decoded as a score`)
	}
}

// TestEventLayout pins Event's size and that Snap is its only pointer, so a
// recorded run's buffer stays compact and mostly pointer-free.
func TestEventLayout(t *testing.T) {
	if size := unsafe.Sizeof(Event{}); size > 128 {
		t.Errorf("sizeof(Event) = %d B, want <= 128", size)
	}
	typ := reflect.TypeOf(Event{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if hasPointers(f.Type) != (f.Name == "Snap") {
			t.Errorf("field %s (%s): pointer-bearing = %v; only Snap may hold pointers", f.Name, f.Type, hasPointers(f.Type))
		}
	}
}

// hasPointers reports whether a value of type t contains any pointer.
func hasPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Array:
		return t.Len() > 0 && hasPointers(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if hasPointers(t.Field(i).Type) {
				return true
			}
		}
		return false
	case reflect.Pointer, reflect.Map, reflect.Slice, reflect.String, reflect.Interface,
		reflect.Chan, reflect.Func, reflect.UnsafePointer:
		return true
	}
	return false
}
