package trace

import (
	"bytes"
	"testing"
)

// FuzzRead: arbitrary byte streams must never panic the trace reader; valid
// traces round-trip.
func FuzzRead(f *testing.F) {
	var buf bytes.Buffer
	j := NewJSONL(&buf)
	j.Event(Event{T: 1, Kind: KindArrival, Item: 3, Class: 1})
	j.Event(Event{T: 2, Kind: KindServed, Class: 0, Arrival: 1})
	_ = j.Flush()
	f.Add(buf.Bytes())
	f.Add([]byte(""))
	f.Add([]byte("{}\n{}\n"))
	f.Add([]byte(`{"t":1,"kind":"arrival"`)) // truncated
	f.Add([]byte("\x00\x01\x02"))
	for k := Kind(0); int(k) < len(kindNames); k++ {
		f.Add([]byte(`{"t":1,"kind":"` + k.String() + `"}`))
	}
	for r := Reason(0); int(r) < len(reasonNames); r++ {
		f.Add([]byte(`{"t":1,"kind":"span-end","reason":"` + r.String() + `"}`))
	}
	f.Add([]byte(`{"t":1,"kind":"no-such-kind"}`)) // unknown names must error
	// Infinite scores travel as strings (an expired EDF entry scores −Inf).
	f.Add([]byte(`{"t":1,"kind":"decision","item":2,"score":"-Inf","runner_up":3,"runner_up_score":"+Inf"}`))
	f.Add([]byte(`{"t":1,"kind":"span-enqueue","req":1,"score":"+Inf"}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		events, err := Read(bytes.NewReader(data))
		if err != nil {
			return // malformed input is allowed to error, not panic
		}
		// Whatever decoded must re-encode and re-decode to the same events.
		var out bytes.Buffer
		j := NewJSONL(&out)
		for _, e := range events {
			j.Event(e)
		}
		if err := j.Flush(); err != nil {
			t.Fatal(err)
		}
		again, err := Read(&out)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if len(again) != len(events) {
			t.Fatalf("round trip changed count: %d vs %d", len(again), len(events))
		}
		for i := range events {
			if again[i] != events[i] {
				t.Fatalf("event %d changed: %+v vs %+v", i, again[i], events[i])
			}
		}
	})
}
