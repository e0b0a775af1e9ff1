package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hybridqos"
	"hybridqos/internal/span"
	"hybridqos/internal/telemetry"
	"hybridqos/internal/trace"
)

var update = flag.Bool("update", false, "rewrite the golden output files")

// syntheticEvents is a tiny hand-built trace exercising every table the
// command prints: arrivals, served requests, fault events of all three kinds
// (including a class-less corrupted broadcast) and a pull completion.
func syntheticEvents() []trace.Event {
	return []trace.Event{
		{T: 0, Kind: trace.KindArrival, Item: 50, Class: 0},
		{T: 0.5, Kind: trace.KindArrival, Item: 51, Class: 1},
		{T: 1, Kind: trace.KindPushStart, Item: 1, Class: -1},
		{T: 2, Kind: trace.KindCorrupt, Item: 1, Class: -1, Push: true},
		{T: 3, Kind: trace.KindPullStart, Item: 50, Class: 0, Requests: 1},
		{T: 4, Kind: trace.KindPullComplete, Item: 50, Class: 0, Requests: 1},
		{T: 4, Kind: trace.KindServed, Class: 0, Arrival: 0},
		{T: 5, Kind: trace.KindPullStart, Item: 51, Class: 1, Requests: 1},
		{T: 6, Kind: trace.KindCorrupt, Item: 51, Class: 1, Requests: 1},
		{T: 6, Kind: trace.KindRetry, Item: 51, Class: 1, Attempt: 1},
		{T: 8, Kind: trace.KindShed, Item: 52, Class: 2},
		{T: 9, Kind: trace.KindPullComplete, Item: 51, Class: 1, Requests: 1},
		{T: 9, Kind: trace.KindServed, Class: 1, Arrival: 0.5},
		{T: 10, Kind: trace.KindArrival, Item: 52, Class: 2},
	}
}

// TestRunGolden pins the full text report for a fixed synthetic trace,
// including the fault-events-by-class table.
func TestRunGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, syntheticEvents(), options{classes: 3, buckets: 2}); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "golden.txt")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with go test -update)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("output drifted from golden file:\n--- got ---\n%s\n--- want ---\n%s", buf.Bytes(), want)
	}
}

// clusterEvents is a hand-built two-cell trace: cell-stamped arrivals, an
// accepted handoff in each direction, and refusals of every reason.
func clusterEvents() []trace.Event {
	return []trace.Event{
		{T: 0, Kind: trace.KindArrival, Item: 50, Class: 0, Cell: 0},
		{T: 0.5, Kind: trace.KindArrival, Item: 51, Class: 1, Cell: 1},
		{T: 1, Kind: trace.KindArrival, Item: 52, Class: 2, Cell: 1},
		{T: 2, Kind: trace.KindHandoff, Item: 50, Class: 0, Cell: 1},
		{T: 3, Kind: trace.KindHandoffRefused, Item: 90, Class: 2, Cell: 0, Reason: trace.RefusalNoItem},
		{T: 4, Kind: trace.KindHandoff, Item: 51, Class: 1, Cell: 0},
		{T: 5, Kind: trace.KindHandoffRefused, Item: 52, Class: 2, Cell: 0, Reason: trace.RefusalExpired},
		{T: 5.5, Kind: trace.KindHandoffRefused, Item: 60, Class: 1, Cell: 1, Reason: trace.RefusalShed},
		{T: 6, Kind: trace.KindServed, Class: 0, Arrival: 0, Cell: 1},
		{T: 6.5, Kind: trace.KindHandoffRefused, Item: 61, Class: 0, Cell: 1, Reason: trace.RefusalHorizon},
		{T: 7, Kind: trace.KindArrival, Item: 53, Class: 0, Cell: 0},
	}
}

// TestRunGoldenCluster pins the report for a multi-cell trace, including
// the per-cell breakdown table.
func TestRunGoldenCluster(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, clusterEvents(), options{classes: 3, buckets: 2}); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "golden_cluster.txt")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with go test -update)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("output drifted from golden file:\n--- got ---\n%s\n--- want ---\n%s", buf.Bytes(), want)
	}
}

// spanEvents is a hand-built trace with span provenance: one pull-served
// request (with its enqueue score and the extraction decision that won) and
// one push-registered request that expired waiting.
func spanEvents() []trace.Event {
	return []trace.Event{
		{T: 0, Kind: trace.KindArrival, Item: 50, Class: 0},
		{T: 0, Kind: trace.KindSpanStart, Item: 50, Class: 0, Req: 7, Reason: trace.VerdictPull},
		{T: 0, Kind: trace.KindSpanEnqueue, Item: 50, Class: 0, Req: 7, Score: 2.5, Requests: 1},
		{T: 1, Kind: trace.KindDecision, Item: 50, Class: 0, Score: 2.5, RunnerUp: 51, RunnerUpScore: 1.25, Requests: 1},
		{T: 1, Kind: trace.KindPullStart, Item: 50, Class: 0, Requests: 1},
		{T: 2, Kind: trace.KindPullComplete, Item: 50, Class: 0, Requests: 1},
		{T: 2, Kind: trace.KindServed, Class: 0, Arrival: 0},
		{T: 2, Kind: trace.KindSpanEnd, Item: 50, Class: 0, Req: 7, Reason: trace.EndServed, Arrival: 0, Start: 1},
		{T: 3, Kind: trace.KindArrival, Item: 2, Class: 1},
		{T: 3, Kind: trace.KindSpanStart, Item: 2, Class: 1, Req: 8, Reason: trace.VerdictPush},
		{T: 5, Kind: trace.KindSpanEnd, Item: 2, Class: 1, Req: 8, Reason: trace.EndExpired, Arrival: 3},
	}
}

// TestRunGoldenSpans pins the -spans report: audit line, outcome table and
// segment table.
func TestRunGoldenSpans(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, spanEvents(), options{classes: 3, buckets: 2, spans: true}); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "golden_spans.txt")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with go test -update)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("output drifted from golden file:\n--- got ---\n%s\n--- want ---\n%s", buf.Bytes(), want)
	}
}

// TestRunGoldenClusterSpans pins the -spans report for the trace of
//
//	hybridsim -horizon 1000 -reps 1 -cells 3 -mobility 0.01 -overlap 0.5 \
//	  -spans 1 -loss 0.1 -retries 2 -ttl 100 -trace f
//
// where requests in loss backoff roam and are refused at a barrier: the
// destination's refusal merges in ahead of the origin's same-instant
// span-retry, span-enqueue and span-handoff.
func TestRunGoldenClusterSpans(t *testing.T) {
	cfg := hybridqos.PaperConfig()
	cfg.Horizon = 1000
	cfg.Replications = 1
	cfg.RequestTTL = 100
	cfg.Faults = &hybridqos.FaultsConfig{LossProb: 0.1, MaxRetries: 2, RetryBackoff: 1}
	cfg.Cluster = &hybridqos.ClusterOptions{Cells: 3, CatalogOverlap: 0.5, MobilityRate: 0.01, AttachDelay: 1, HandoffEvery: 10}
	cfg.Spans = &hybridqos.SpanTraceConfig{Rates: []float64{1}}
	tracePath := filepath.Join(t.TempDir(), "cluster.jsonl")
	if _, err := hybridqos.WriteClusterTrace(cfg, tracePath); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	events, err := trace.Read(f)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := run(&buf, events, options{classes: 3, buckets: 10, spans: true}); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "golden_cluster_spans.txt")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with go test -update)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("output drifted from golden file:\n--- got ---\n%s\n--- want ---\n%s", buf.Bytes(), want)
	}
}

// TestSpansRequireSpanEvents pins the error for a trace recorded without
// -spans sampling.
func TestSpansRequireSpanEvents(t *testing.T) {
	var buf bytes.Buffer
	err := run(&buf, syntheticEvents(), options{classes: 3, buckets: 2, spans: true})
	if err == nil || !strings.Contains(err.Error(), "no span events") {
		t.Fatalf("err = %v, want missing-span-events error", err)
	}
}

// TestSpanExportFiles drives the -perfetto / -otlp export paths and
// schema-validates both artefacts.
func TestSpanExportFiles(t *testing.T) {
	dir := t.TempDir()
	pf := filepath.Join(dir, "spans-perfetto.json")
	ot := filepath.Join(dir, "spans-otlp.json")
	var buf bytes.Buffer
	if err := run(&buf, spanEvents(), options{classes: 3, buckets: 2, perfetto: pf, otlp: ot}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(pf)
	if err != nil {
		t.Fatal(err)
	}
	if err := span.ValidatePerfetto(data); err != nil {
		t.Errorf("perfetto export invalid: %v", err)
	}
	otBytes, err := os.ReadFile(ot)
	if err != nil {
		t.Fatal(err)
	}
	var otlp struct {
		ResourceSpans []struct {
			ScopeSpans []struct {
				Spans []map[string]any `json:"spans"`
			} `json:"scopeSpans"`
		} `json:"resourceSpans"`
	}
	if err := json.Unmarshal(otBytes, &otlp); err != nil {
		t.Fatalf("otlp export not JSON: %v", err)
	}
	if len(otlp.ResourceSpans) == 0 || len(otlp.ResourceSpans[0].ScopeSpans) == 0 ||
		len(otlp.ResourceSpans[0].ScopeSpans[0].Spans) == 0 {
		t.Error("otlp export carries no spans")
	}
	for _, want := range []string{"wrote 2 spans as Perfetto", "wrote 2 spans as OTLP"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("output missing %q:\n%s", want, buf.String())
		}
	}
}

func TestCellTableSkippedOnSingleCellTrace(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, syntheticEvents(), options{classes: 3, buckets: 2}); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "Per-cell breakdown") {
		t.Error("per-cell table printed for a single-cell trace")
	}
}

func TestFaultTableSkippedOnCleanTrace(t *testing.T) {
	events := []trace.Event{
		{T: 0, Kind: trace.KindArrival, Item: 1, Class: 0},
		{T: 1, Kind: trace.KindServed, Class: 0, Arrival: 0},
	}
	var buf bytes.Buffer
	if err := run(&buf, events, options{classes: 3, buckets: 2}); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "Fault events") {
		t.Error("fault table printed for a trace with no fault events")
	}
}

func TestTimelineRequiresSnapshots(t *testing.T) {
	var buf bytes.Buffer
	err := run(&buf, syntheticEvents(), options{classes: 3, buckets: 2, timeline: filepath.Join(t.TempDir(), "tl")})
	if err == nil || !strings.Contains(err.Error(), "no telemetry snapshots") {
		t.Fatalf("err = %v, want missing-snapshot error", err)
	}
}

// TestTimelineArtifacts drives the full pipeline: simulate a faulty run with
// telemetry, write its trace, and render the timeline artefacts from it.
func TestTimelineArtifacts(t *testing.T) {
	cfg := hybridqos.PaperConfig()
	cfg.Horizon = 4000
	cfg.Replications = 1
	cfg.Faults = &hybridqos.FaultsConfig{LossProb: 0.15, MaxRetries: 2}
	cfg.Telemetry = &hybridqos.TelemetryConfig{SnapshotEvery: 250}
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "run.jsonl")
	if _, err := hybridqos.WriteTrace(cfg, tracePath); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	events, err := trace.Read(f)
	if err != nil {
		t.Fatal(err)
	}

	prefix := filepath.Join(dir, "tl")
	var buf bytes.Buffer
	if err := run(&buf, events, options{classes: 3, buckets: 4, timeline: prefix}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "snapshot audit: 16 snapshots reproduced exactly") {
		t.Errorf("missing audit line in:\n%s", out)
	}
	csvBytes, err := os.ReadFile(prefix + ".csv")
	if err != nil {
		t.Fatal(err)
	}
	head := strings.SplitN(string(csvBytes), "\n", 2)[0]
	for _, col := range []string{"t", "queue_requests", "Class-A_p95", "Class-C_served"} {
		if !strings.Contains(head, col) {
			t.Errorf("CSV header %q missing column %q", head, col)
		}
	}
	for _, p := range []string{prefix + "-delay.svg", prefix + "-queue.svg"} {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(b), "<svg") {
			t.Errorf("%s is not an SVG", p)
		}
	}

	tl, err := telemetry.BuildTimeline(trace.Snapshots(events))
	if err != nil {
		t.Fatal(err)
	}
	if !timelineHasData(tl) {
		t.Error("timeline has no finite windowed percentiles at all")
	}
}
