package trace

import (
	"io"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// recordedEvents loads testdata/wire_golden.jsonl, a recorded three-cell
// run with burst loss, retries, shedding, blocking, EDF with a TTL, span
// sampling and telemetry snapshots, followed by a serving run. With
// snapshots false the snapshot events are dropped.
func recordedEvents(tb testing.TB, snapshots bool) []Event {
	tb.Helper()
	f, err := os.Open(filepath.Join("testdata", "wire_golden.jsonl"))
	if err != nil {
		tb.Fatal(err)
	}
	defer f.Close()
	events, err := Read(f)
	if err != nil {
		tb.Fatal(err)
	}
	kept := events[:0]
	for _, e := range events {
		if snapshots || e.Kind != KindSnapshot {
			kept = append(kept, e)
		}
	}
	return kept
}

// BenchmarkJSONL encodes the recorded trace's non-snapshot events through
// JSONL into io.Discard; ns/event and allocs/event are per encoded event.
func BenchmarkJSONL(b *testing.B) {
	events := recordedEvents(b, false)
	j := NewJSONL(io.Discard)
	m := startMallocs(b)
	for i := 0; i < b.N; i++ {
		for _, e := range events {
			j.Event(e)
		}
	}
	m.report(b, len(events))
	if err := j.Flush(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkBufferEvent records the whole recorded trace into a fresh
// Buffer per iteration: the append, growth, zeroing and copying cost a
// recorded run pays per event.
func BenchmarkBufferEvent(b *testing.B) {
	events := recordedEvents(b, true)
	m := startMallocs(b)
	for i := 0; i < b.N; i++ {
		buf := &Buffer{}
		for _, e := range events {
			buf.Event(e)
		}
	}
	m.report(b, len(events))
}

// mallocs counts a benchmark loop's heap allocations.
type mallocs struct{ before runtime.MemStats }

// startMallocs resets the timer and starts counting.
func startMallocs(b *testing.B) *mallocs {
	m := &mallocs{}
	b.ReportAllocs()
	runtime.ReadMemStats(&m.before)
	b.ResetTimer()
	return m
}

// report stops the timer and adds ns/event and allocs/event for a loop
// of n events per op.
func (m *mallocs) report(b *testing.B, n int) {
	b.StopTimer()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	events := float64(b.N) * float64(n)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/events, "ns/event")
	b.ReportMetric(float64(after.Mallocs-m.before.Mallocs)/events, "allocs/event")
}

// TestJSONLAllocationFree: once its line buffer has grown, JSONL encodes a
// non-snapshot event without allocating.
func TestJSONLAllocationFree(t *testing.T) {
	events := recordedEvents(t, false)
	j := NewJSONL(io.Discard)
	allocs := testing.AllocsPerRun(5, func() {
		for _, e := range events {
			j.Event(e)
		}
	})
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Fatalf("%.0f allocations encoding %d events, want 0", allocs, len(events))
	}
}
