package hybridqos

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"hybridqos/internal/admission"
	"hybridqos/internal/catalog"
	"hybridqos/internal/clients"
	"hybridqos/internal/clock"
	"hybridqos/internal/core"
	"hybridqos/internal/faults"
	"hybridqos/internal/telemetry"
	"hybridqos/internal/trace"
)

var update = flag.Bool("update", false, "rewrite internal/trace/testdata/wire_golden.jsonl")

// goldenTraceConfig is a short three-cell run with every recorded layer on:
// EDF with a TTL (expired entries score −Inf), burst loss with retries,
// shedding, bandwidth blocking, telemetry snapshots, span sampling and
// roaming clients, so its trace carries every simulation kind and the
// cluster's cell tags.
func goldenTraceConfig() Config {
	c := PaperConfig()
	c.Horizon = 50
	c.Lambda = 6
	c.Replications = 1
	c.PullPolicy = "edf"
	c.RequestTTL = 20
	c.Bandwidth = &BandwidthConfig{Total: 6, Fractions: []float64{0.5, 0.3, 0.2}, DemandMean: 1.5}
	c.Faults = &FaultsConfig{LossProb: 0.2, MeanBurst: 3, MaxRetries: 2, RetryBackoff: 1, ShedHigh: 40, ShedLow: 25}
	c.Telemetry = &TelemetryConfig{SnapshotEvery: 20}
	c.Spans = &SpanTraceConfig{Rates: []float64{0.3, 0.2, 0.1}}
	c.Cluster = &ClusterOptions{Cells: 3, CatalogOverlap: 0.5, MobilityRate: 0.005, AttachDelay: 1, HandoffEvery: 5}
	return c
}

// writeGoldenServing appends a serving run's trace to w: an overloaded
// three-class cell behind rate limits, a pending quota, shedding and short
// deadlines, drained midway, so the trace carries the serving kinds
// (expired, rate-limited, quota-exceeded) and the serving span terminals.
func writeGoldenServing(t *testing.T, w *trace.JSONL) {
	t.Helper()
	cat, err := catalog.Generate(catalog.Config{D: 60, Theta: 0.5, MinLen: 1, MaxLen: 1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	cls, err := clients.New(clients.Config{Weights: []float64{4, 2, 1}})
	if err != nil {
		t.Fatal(err)
	}
	tele, err := telemetry.New(telemetry.Options{})
	if err != nil {
		t.Fatal(err)
	}
	v := clock.NewVirtual()
	s, err := core.NewServing(core.Config{
		Catalog: cat, Classes: cls, PullPolicyName: "priority", Cutoff: 5,
		Tracer: w, Telemetry: tele, Spans: &core.SpanConfig{Rates: []float64{1, 0.5, 0.25}},
	}, v, admission.Config{
		Classes:         []admission.ClassConfig{{}, {MaxPending: 3}, {Rate: 0.3, Burst: 2}},
		Shed:            &faults.ShedConfig{High: 8, Low: 4, MaxShedClasses: 1},
		DefaultDeadline: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	for k := 0; k < 120; k++ {
		class := k % 3
		item := class*20 + (k/3)%20 + 1
		v.At(0.5*float64(k), func() {
			if !s.Draining() {
				s.Submit(item, clients.Class(class), 0, nil)
			}
		})
	}
	v.At(50, func() { s.Drain(func() {}) })
	v.RunUntil(100)
}

// TestTraceWireGolden pins the JSONL bytes of a recorded cluster run and a
// serving run against internal/trace/testdata/wire_golden.jsonl (which the
// trace package's benchmarks also replay): the trace wire format —
// field names and order, omitted zero values, kind and reason names, float
// formatting and the ±Inf score strings — must not drift. Regenerate with
// go test -run TestTraceWireGolden -update only for an intended format change.
func TestTraceWireGolden(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cluster.jsonl")
	if _, err := WriteClusterTrace(goldenTraceConfig(), path); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var serving bytes.Buffer
	w := trace.NewJSONL(&serving)
	writeGoldenServing(t, w)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	got = append(got, serving.Bytes()...)

	events, err := trace.Read(bytes.NewReader(got))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[trace.Kind]bool{}
	var negInf, cells bool
	for _, e := range events {
		seen[e.Kind] = true
		negInf = negInf || e.Score < 0 && float64(e.Score) < -1e308
		cells = cells || e.Cell != 0
	}
	for k := trace.KindArrival; k <= trace.KindSpanEnd; k++ {
		if !seen[k] {
			t.Errorf("golden trace has no %s event", k)
		}
	}
	if !negInf || !cells {
		t.Errorf("golden trace lacks a -Inf score (%v) or a cell tag (%v)", negInf, cells)
	}

	golden := filepath.Join("internal", "trace", "testdata", "wire_golden.jsonl")
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with go test -update)", err)
	}
	if !bytes.Equal(got, want) {
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		line := bytes.Count(want[:i], []byte("\n")) + 1
		t.Fatalf("JSONL drifted from %s at line %d (%d vs %d bytes)", golden, line, len(got), len(want))
	}
}
