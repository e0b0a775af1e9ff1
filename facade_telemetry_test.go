package hybridqos

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"hybridqos/internal/trace"
)

// TestTelemetryConfigValidation covers the facade-level cadence checks.
func TestTelemetryConfigValidation(t *testing.T) {
	for _, every := range []float64{0, -5, math.NaN(), math.Inf(1)} {
		c := quickConfig()
		c.Telemetry = &TelemetryConfig{SnapshotEvery: every}
		if _, err := Simulate(c); err == nil {
			t.Errorf("SnapshotEvery=%g accepted", every)
		}
	}
}

// TestSimulateWithTelemetryMatchesWithout pins the facade-level no-op
// guarantee: enabling telemetry must not change any aggregated result, even
// with multiple parallel replications (the collector rides replication 0).
func TestSimulateWithTelemetryMatchesWithout(t *testing.T) {
	base := quickConfig()
	off, err := Simulate(base)
	if err != nil {
		t.Fatal(err)
	}
	withTel := base
	withTel.Telemetry = &TelemetryConfig{SnapshotEvery: 200}
	on, err := Simulate(withTel)
	if err != nil {
		t.Fatal(err)
	}
	if off.OverallDelay != on.OverallDelay || off.TotalCost != on.TotalCost {
		t.Fatalf("telemetry changed results: delay %v vs %v, cost %v vs %v",
			off.OverallDelay, on.OverallDelay, off.TotalCost, on.TotalCost)
	}
	for i := range off.PerClass {
		if off.PerClass[i].MeanDelay != on.PerClass[i].MeanDelay {
			t.Errorf("class %d mean delay %v vs %v", i, off.PerClass[i].MeanDelay, on.PerClass[i].MeanDelay)
		}
	}
}

// TestOnSnapshotDeliversProm checks the live-exposition hook: every snapshot
// arrives rendered in the Prometheus text format at the configured cadence.
func TestOnSnapshotDeliversProm(t *testing.T) {
	c := quickConfig()
	c.Replications = 2
	var times []float64
	var last string
	c.Telemetry = &TelemetryConfig{
		SnapshotEvery: 500,
		OnSnapshot: func(simTime float64, prom []byte) {
			times = append(times, simTime)
			last = string(prom)
		},
	}
	if _, err := Simulate(c); err != nil {
		t.Fatal(err)
	}
	want := int(c.Horizon / 500)
	if len(times) != want {
		t.Fatalf("hook fired %d times, want %d (one trajectory only)", len(times), want)
	}
	for i, ts := range times {
		if got := 500 * float64(i+1); ts != got {
			t.Fatalf("snapshot %d at t=%g, want %g", i, ts, got)
		}
	}
	for _, needle := range []string{"hybridqos_sim_time", "hybridqos_arrivals_total", "hybridqos_delay_bucket"} {
		if !strings.Contains(last, needle) {
			t.Errorf("exposition missing %q", needle)
		}
	}
}

// TestOnSnapshotOneRunUnderSweep holds OptimizeCutoff to OnSnapshot's
// promise on a parallel sweep: the hook hears one run (the first cutoff's
// replication 0), so no two calls overlap and simulated time strictly
// increases from call to call. times is appended without a lock on
// purpose: a second run calling the hook is a data race under -race.
func TestOnSnapshotOneRunUnderSweep(t *testing.T) {
	defer SetWorkers(SetWorkers(4))
	c := quickConfig()
	var inFlight, overlaps atomic.Int32
	var times []float64
	c.Telemetry = &TelemetryConfig{
		SnapshotEvery: 50,
		OnSnapshot: func(simTime float64, _ []byte) {
			if inFlight.Add(1) > 1 {
				overlaps.Add(1)
			}
			times = append(times, simTime)
			inFlight.Add(-1)
		},
	}
	if _, err := OptimizeCutoff(c, 10, 90, 20, "cost"); err != nil {
		t.Fatal(err)
	}
	if n := overlaps.Load(); n > 0 {
		t.Errorf("%d OnSnapshot calls overlapped another", n)
	}
	if want := int(c.Horizon / 50); len(times) != want {
		t.Errorf("hook fired %d times, want %d (one run)", len(times), want)
	}
	for i := 1; i < len(times); i++ {
		if times[i] <= times[i-1] {
			t.Fatalf("call %d at t=%g follows t=%g", i, times[i], times[i-1])
		}
	}
}

// TestWriteTraceEmbedsVerifiableSnapshots runs the full pipeline an operator
// would: write a faulty run's trace with telemetry, read it back, and audit
// the embedded snapshots against the event replay.
func TestWriteTraceEmbedsVerifiableSnapshots(t *testing.T) {
	c := quickConfig()
	c.Replications = 1
	c.Faults = &FaultsConfig{LossProb: 0.2, MaxRetries: 2, ShedHigh: 50, ShedLow: 25}
	c.Telemetry = &TelemetryConfig{SnapshotEvery: 400}
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	if _, err := WriteTrace(c, path); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	events, err := trace.Read(f)
	if err != nil {
		t.Fatal(err)
	}
	want := int(c.Horizon / 400)
	if got := len(trace.Snapshots(events)); got != want {
		t.Fatalf("trace embeds %d snapshots, want %d", got, want)
	}
	n, err := trace.VerifySnapshots(events)
	if err != nil {
		t.Fatalf("audit: %v", err)
	}
	if n != want {
		t.Fatalf("audited %d snapshots, want %d", n, want)
	}
}

// TestExportTimeline drives the public trace-to-artefacts path end to end:
// WriteTrace with telemetry, then ExportTimeline audits the snapshots and
// writes the CSV and both SVGs.
func TestExportTimeline(t *testing.T) {
	c := quickConfig()
	c.Replications = 1
	c.Faults = &FaultsConfig{LossProb: 0.15, MaxRetries: 2}
	c.Telemetry = &TelemetryConfig{SnapshotEvery: 250}
	dir := t.TempDir()
	path := filepath.Join(dir, "trace.jsonl")
	if _, err := WriteTrace(c, path); err != nil {
		t.Fatal(err)
	}
	a, err := ExportTimeline(path, filepath.Join(dir, "tl"))
	if err != nil {
		t.Fatal(err)
	}
	want := int(c.Horizon / 250)
	if a.Snapshots != want || a.Ticks != want {
		t.Fatalf("snapshots/ticks = %d/%d, want %d", a.Snapshots, a.Ticks, want)
	}
	if a.Classes == 0 {
		t.Error("no classes in timeline")
	}
	for _, p := range []string{a.CSV, a.DelaySVG, a.QueueSVG} {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if len(b) == 0 {
			t.Errorf("%s is empty", p)
		}
	}
	if !strings.HasPrefix(filepath.Base(a.CSV), "tl") {
		t.Errorf("unexpected CSV path %s", a.CSV)
	}
}

// TestExportTimelineRequiresSnapshots: a trace without telemetry snapshots is
// rejected with a pointer at the fix.
func TestExportTimelineRequiresSnapshots(t *testing.T) {
	c := quickConfig()
	dir := t.TempDir()
	path := filepath.Join(dir, "plain.jsonl")
	if _, err := WriteTrace(c, path); err != nil {
		t.Fatal(err)
	}
	_, err := ExportTimeline(path, filepath.Join(dir, "tl"))
	if err == nil || !strings.Contains(err.Error(), "no telemetry snapshots") {
		t.Fatalf("err = %v, want missing-snapshot error", err)
	}
}
