package hybridqos

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"hybridqos/internal/trace"
)

func clusterTestConfig() Config {
	c := PaperConfig()
	c.Horizon = 500
	c.Replications = 1
	c.Cluster = &ClusterOptions{
		Cells:          4,
		CatalogOverlap: 0.8,
		MobilityRate:   0.05,
		AttachDelay:    1,
		Routing:        "least-loaded",
		HandoffEvery:   50,
		SaturationLoad: 100000,
	}
	return c
}

func TestSimulateCluster(t *testing.T) {
	res, err := SimulateCluster(clusterTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Cells != 4 || len(res.PerCell) != 4 {
		t.Fatalf("cells=%d percell=%d", res.Cells, len(res.PerCell))
	}
	if res.SharedRanks != 80 {
		t.Errorf("SharedRanks=%d, want 80", res.SharedRanks)
	}
	if len(res.PerClass) != 3 {
		t.Fatalf("%d classes", len(res.PerClass))
	}
	if res.PerClass[0].MeanDelay <= 0 || res.OverallDelay <= 0 {
		t.Error("no delay statistics")
	}
	// Differentiation survives federation: Class-A no slower than Class-C.
	if res.PerClass[0].MeanDelay > res.PerClass[2].MeanDelay*1.05 {
		t.Errorf("Class-A delay %.1f exceeds Class-C %.1f", res.PerClass[0].MeanDelay, res.PerClass[2].MeanDelay)
	}
	if res.Handoffs == 0 {
		t.Error("mobility produced no accepted handoffs")
	}
	var in int64
	for _, pc := range res.PerCell {
		in += pc.HandoffsIn
		if pc.Saturated {
			t.Errorf("cell %d saturated under an absurd threshold", pc.Cell)
		}
	}
	if in != res.Handoffs {
		t.Errorf("per-cell handoffs %d != aggregate %d", in, res.Handoffs)
	}

	// Deterministic: a second run is identical.
	again, err := SimulateCluster(clusterTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, again) {
		t.Error("SimulateCluster not deterministic")
	}
}

func TestSimulateClusterRequiresOptions(t *testing.T) {
	c := PaperConfig()
	if _, err := SimulateCluster(c); err == nil {
		t.Fatal("SimulateCluster accepted a config without Cluster options")
	}
}

func TestClusterConfigJSONRoundTrip(t *testing.T) {
	c := clusterTestConfig()
	path := filepath.Join(t.TempDir(), "cluster.json")
	if err := SaveConfig(c, path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadConfig(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Cluster, c.Cluster) {
		t.Errorf("cluster options lost in round-trip: %+v vs %+v", got.Cluster, c.Cluster)
	}
}

func TestRoutingPolicies(t *testing.T) {
	names := RoutingPolicies()
	want := map[string]bool{"nearest": true, "least-loaded": true, "class-affine": true}
	for _, n := range names {
		delete(want, n)
	}
	if len(want) != 0 {
		t.Errorf("missing routing policies: %v (got %v)", want, names)
	}
}

// TestWriteClusterTrace round-trips a cluster trace through the JSONL
// writer and the trace reader: every cell id must appear on arrival events
// and at least one handoff must be recorded.
func TestWriteClusterTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cluster.jsonl")
	n, err := WriteClusterTrace(clusterTestConfig(), path)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("no events written")
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
	if int64(len(events)) != n {
		t.Fatalf("read %d events, writer reported %d", len(events), n)
	}
	cells := map[int32]bool{}
	handoffs := 0
	for i, e := range events {
		if i > 0 && e.T < events[i-1].T {
			t.Fatalf("trace not time-ordered at index %d", i)
		}
		if e.Kind == trace.KindArrival {
			cells[e.Cell] = true
		}
		if e.Kind == trace.KindHandoff {
			handoffs++
		}
	}
	if len(cells) != 4 {
		t.Errorf("arrivals seen in %d cells, want 4", len(cells))
	}
	if handoffs == 0 {
		t.Error("no handoff events in trace")
	}
}

// TestClusterRejectsSnapshotHook: cluster cells never call
// Telemetry.OnSnapshot, so a cluster run with the hook set is an error
// rather than a run whose hook silently never fires.
func TestClusterRejectsSnapshotHook(t *testing.T) {
	c := clusterTestConfig()
	fired := 0
	c.Telemetry = &TelemetryConfig{SnapshotEvery: 50, OnSnapshot: func(float64, []byte) { fired++ }}
	if _, err := SimulateCluster(c); !errors.Is(err, ErrClusterSnapshotHook) {
		t.Errorf("SimulateCluster with OnSnapshot: err = %v, want ErrClusterSnapshotHook", err)
	}
	path := filepath.Join(t.TempDir(), "cluster.jsonl")
	if _, err := WriteClusterTrace(c, path); !errors.Is(err, ErrClusterSnapshotHook) {
		t.Errorf("WriteClusterTrace with OnSnapshot: err = %v, want ErrClusterSnapshotHook", err)
	}
	if fired != 0 {
		t.Errorf("hook fired %d times", fired)
	}
	// Snapshots into the trace alone stay supported.
	c.Telemetry.OnSnapshot = nil
	if _, err := SimulateCluster(c); err != nil {
		t.Fatal(err)
	}
}
