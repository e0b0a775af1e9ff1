package telemetry

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzSnapshotDecode feeds arbitrary bytes through the snapshot JSON decoder
// and exercises every consumer of a decoded snapshot: the Prometheus
// exposition renderer, the timeline builder and the replay differ must never
// panic on malformed input (short count slices, absurd classes, NaN fields),
// and AppendProm must render the same bytes as the fmt-based oracle.
func FuzzSnapshotDecode(f *testing.F) {
	c, err := New(Options{SnapshotEvery: 1})
	if err != nil {
		f.Fatal(err)
	}
	c.Arrival(0)
	c.Served(0, 1.5, true)
	c.Blocked(1, 3)
	c.ObserveQueue(2, 4)
	seed, err := json.Marshal(c.TakeSnapshot(1))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"t":1,"hists":[{"name":"delay","class":-5,"counts":[1,2],"sum":1e308}]}`))
	f.Add([]byte(`{"counters":[{"name":"x","class":0,"v":-1}]}`))
	f.Add([]byte(`{"counters":[{"name":"x","class":-1,"v":1}],"gauges":[{"name":"x_total","class":3,"v":2}],"hists":[{"name":"x_total","class":-1,"counts":[1]}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var s Snapshot
		if err := json.Unmarshal(data, &s); err != nil {
			return
		}
		var buf bytes.Buffer
		if err := writePromOracle(&buf, &s); err != nil {
			t.Fatalf("oracle on decodable snapshot: %v", err)
		}
		if got := AppendProm(nil, &s); !bytes.Equal(got, buf.Bytes()) {
			t.Fatalf("AppendProm differs from the oracle:\n got %q\nwant %q", got, buf.Bytes())
		}
		_, _ = BuildTimeline([]*Snapshot{&s})
		_ = DiffReplay(&s, &s)
		// Round-trip: a decoded snapshot must re-encode.
		if _, err := json.Marshal(&s); err != nil {
			t.Fatalf("re-encode: %v", err)
		}
	})
}
