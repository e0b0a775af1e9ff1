package hybridqos

import (
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"hybridqos/internal/span"
	"hybridqos/internal/trace"
	"hybridqos/internal/workpool"
)

// spanTraceConfig is the shared workload for the exemplar-resolution tests:
// telemetry snapshots and span sampling on, a lossy downlink so retries and
// failed-service segments appear in the sampled population.
func spanTraceConfig() Config {
	c := PaperConfig()
	c.Horizon = 2000
	c.Replications = 1
	c.Faults = &FaultsConfig{LossProb: 0.1, MaxRetries: 2}
	c.Telemetry = &TelemetryConfig{SnapshotEvery: 250}
	c.Spans = &SpanTraceConfig{Rates: []float64{1, 0.5, 0.25}, Exemplars: 3}
	return c
}

// exemplarIDs collects every exemplar span ID embedded in the trace's
// telemetry snapshots, sorted and deduplicated.
func exemplarIDs(events []trace.Event) []int64 {
	seen := map[int64]bool{}
	for _, s := range trace.Snapshots(events) {
		for _, ex := range s.Exemplars {
			for _, id := range ex.Spans {
				seen[id] = true
			}
		}
	}
	ids := make([]int64, 0, len(seen))
	for id := range seen {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// TestExemplarSpanIDsResolve runs the full pipeline at worker counts 1 and
// 4: every exemplar span ID a telemetry snapshot carries must resolve to a
// reconstructed served span of the same class, and the exemplar sets must
// be identical at both worker counts (the reservoir stream is split from
// the run's seed, not from scheduling).
func TestExemplarSpanIDsResolve(t *testing.T) {
	dir := t.TempDir()
	var perWorkers [][]int64
	for _, workers := range []int{1, 4} {
		prev := workpool.SetWorkers(workers)
		path := filepath.Join(dir, "run.jsonl")
		_, err := WriteTrace(spanTraceConfig(), path)
		workpool.SetWorkers(prev)
		if err != nil {
			t.Fatal(err)
		}
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		events, err := trace.Read(f)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}

		ids := exemplarIDs(events)
		if len(ids) == 0 {
			t.Fatalf("workers=%d: no exemplar span IDs in any snapshot", workers)
		}
		spans, err := span.Build(events)
		if err != nil {
			t.Fatal(err)
		}
		if err := span.Verify(spans); err != nil {
			t.Fatal(err)
		}
		idx := make(map[int64]*span.Span, len(spans))
		for _, sp := range spans {
			idx[sp.ID] = sp
		}
		classOf := map[int64]int{}
		for _, s := range trace.Snapshots(events) {
			for _, ex := range s.Exemplars {
				for _, id := range ex.Spans {
					classOf[id] = ex.Class
				}
			}
		}
		for _, id := range ids {
			sp := idx[id]
			if sp == nil {
				t.Fatalf("workers=%d: exemplar span %d not in the reconstructed index", workers, id)
			}
			if sp.Outcome != trace.EndServed {
				t.Errorf("workers=%d: exemplar span %d outcome %q, want served (exemplars sample delay observations)",
					workers, id, sp.Outcome)
			}
			if int(sp.Class) != classOf[id] {
				t.Errorf("workers=%d: exemplar span %d class %d, reservoir filed it under class %d",
					workers, id, sp.Class, classOf[id])
			}
		}
		perWorkers = append(perWorkers, ids)
	}
	if !reflect.DeepEqual(perWorkers[0], perWorkers[1]) {
		t.Errorf("exemplar sets diverge across worker counts:\nworkers=1: %v\nworkers=4: %v",
			perWorkers[0], perWorkers[1])
	}
}
