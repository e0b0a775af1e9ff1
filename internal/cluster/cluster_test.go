package cluster_test

import (
	"math"
	"reflect"
	"testing"

	"hybridqos/internal/catalog"
	"hybridqos/internal/clients"
	"hybridqos/internal/cluster"
	"hybridqos/internal/core"
	"hybridqos/internal/stats"
	"hybridqos/internal/trace"
	"hybridqos/internal/workpool"
)

// base returns a small but non-trivial per-cell engine config.
func base(t *testing.T) core.Config {
	t.Helper()
	cat, err := catalog.Generate(catalog.Config{
		D: 100, Theta: 0.6, MinLen: 1, MaxLen: 5,
		LengthWeights: catalog.PaperLengthWeights(), Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := clients.New(clients.PaperConfig())
	if err != nil {
		t.Fatal(err)
	}
	return core.Config{
		Catalog: cat, Classes: cl, Lambda: 5, Cutoff: 40, Alpha: 0.5,
		Horizon: 400, WarmupFraction: 0.1, Seed: 11,
	}
}

// A 1-cell cluster with mobility off must reproduce a plain core run
// bit-for-bit — the refactor's single-cell compatibility contract — and the
// epoch segmentation itself must not perturb the trajectory.
func TestSingleCellMatchesCore(t *testing.T) {
	ref, err := core.New(base(t))
	if err != nil {
		t.Fatal(err)
	}
	want := ref.Run()
	for _, every := range []float64{0, 50} {
		cl, err := cluster.New(cluster.Config{Cells: 1, Base: base(t), HandoffEvery: every})
		if err != nil {
			t.Fatal(err)
		}
		res, err := cl.Run()
		if err != nil {
			t.Fatal(err)
		}
		if len(res.PerCell) != 1 {
			t.Fatalf("HandoffEvery=%g: %d cells", every, len(res.PerCell))
		}
		if !reflect.DeepEqual(res.PerCell[0].Metrics, want) {
			t.Errorf("HandoffEvery=%g: cell metrics diverged from core.Run", every)
		}
		if !reflect.DeepEqual(res.Aggregate.PerClass[0].Delay, want.PerClass[0].Delay) {
			t.Errorf("HandoffEvery=%g: aggregate delay diverged for class 0", every)
		}
	}
}

// With DelayHistBound set, the aggregate's per-class delay histograms are
// bounded too: each equals a histogram bounded at the same cap that merged
// the cells' histograms in cell order.
func TestAggregateDelayHistBounded(t *testing.T) {
	b := base(t)
	b.DelayHistBound = 32
	cl, err := cluster.New(cluster.Config{Cells: 3, Base: b, CatalogOverlap: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	res, err := cl.Run()
	if err != nil {
		t.Fatal(err)
	}
	for ci, agg := range res.Aggregate.PerClass {
		var want stats.Histogram
		want.SetBound(b.DelayHistBound)
		for _, pc := range res.PerCell {
			want.Merge(&pc.Metrics.PerClass[ci].DelayHist)
		}
		if !reflect.DeepEqual(agg.DelayHist, want) {
			t.Errorf("class %d: aggregate delay histogram is not the bounded merge of the cells'", ci)
		}
	}
}

func run64(t *testing.T) *cluster.Result {
	t.Helper()
	cfg := cluster.Config{
		Cells:               64,
		Base:                base(t),
		CatalogOverlap:      0.5,
		Mobility:            cluster.Mobility{Rate: 0.02, AttachDelay: 2},
		Routing:             "least-loaded",
		HandoffEvery:        40,
		HotCell:             3,
		HotFactor:           2,
		SaturationLoad:      5,
		SaturationEpochs:    2,
		SnapshotEveryEpochs: 2,
		CollectTrace:        true,
	}
	cfg.Base.Horizon = 200
	c, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// The 64-cell federation must be bit-identical at any workpool worker
// count: the parallel phase shares nothing and every cross-cell effect is
// sequential at the barrier. This is the cluster's determinism contract.
func TestWorkerCountDeterminism(t *testing.T) {
	prev := workpool.SetWorkers(1)
	defer workpool.SetWorkers(prev)
	want := run64(t)
	var moved int64
	for _, cm := range want.Aggregate.PerClass {
		moved += cm.HandoffsOut
	}
	if moved == 0 {
		t.Fatal("mobility produced no roamers; the determinism check is vacuous")
	}
	if len(want.Trace) == 0 || len(want.Snapshots) == 0 {
		t.Fatal("expected a merged trace and periodic snapshots")
	}
	for _, workers := range []int{4, 0} {
		workpool.SetWorkers(workers)
		got := run64(t)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: result diverged from sequential run", workers)
		}
	}
}

// Mobility moves load; the books must still balance: every outbound roamer
// is either accepted or refused somewhere, and every trace stream carries
// its cell stamp.
func TestHandoffAccounting(t *testing.T) {
	res := run64(t)
	var out, in, refused int64
	for _, cm := range res.Aggregate.PerClass {
		out += cm.HandoffsOut
		in += cm.HandoffsIn
		refused += cm.HandoffRefusals
	}
	if out == 0 {
		t.Fatal("no roamers")
	}
	if in+refused != out {
		t.Errorf("handoffs out=%d but in=%d + refused=%d = %d", out, in, refused, in+refused)
	}
	cells := make(map[int32]bool)
	for _, e := range res.Trace {
		cells[e.Cell] = true
	}
	if len(cells) != 64 {
		t.Errorf("trace covers %d cells, want 64", len(cells))
	}
	for i := 1; i < len(res.Trace); i++ {
		if res.Trace[i].T < res.Trace[i-1].T {
			t.Fatalf("merged trace out of order at %d", i)
		}
	}
}

// A hot cell driven well past the saturation high-water mark must be
// detected, with a recorded onset; lightly loaded cells must not be.
func TestSaturationDetection(t *testing.T) {
	cfg := cluster.Config{
		Cells:            4,
		Base:             base(t),
		CatalogOverlap:   1,
		HandoffEvery:     40,
		HotCell:          2,
		HotFactor:        8,
		SaturationLoad:   1000,
		SaturationEpochs: 2,
	}
	c, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	hot := res.PerCell[2]
	if !hot.Saturated {
		t.Fatalf("hot cell not saturated (final load %d)", hot.FinalLoad)
	}
	if hot.SaturatedAt <= 0 || hot.SaturatedAt > cfg.Base.Horizon {
		t.Errorf("saturation onset %g outside run", hot.SaturatedAt)
	}
	if res.SaturatedCells != 1 {
		t.Errorf("%d saturated cells, want 1", res.SaturatedCells)
	}
	for _, pc := range res.PerCell {
		if pc.Cell != 2 && pc.Saturated {
			t.Errorf("cell %d saturated without a hot spot", pc.Cell)
		}
		if pc.Cell != 2 && pc.SaturatedAt != -1 {
			t.Errorf("cell %d onset %g, want -1", pc.Cell, pc.SaturatedAt)
		}
	}
}

// Resume must replay a snapshotted run to the checkpoint, verify the state
// bit-for-bit, and continue to a final result identical to the
// uninterrupted run.
func TestSnapshotResume(t *testing.T) {
	cfg := cluster.Config{
		Cells:               8,
		Base:                base(t),
		CatalogOverlap:      0.7,
		Mobility:            cluster.Mobility{Rate: 0.05, AttachDelay: 1},
		Routing:             "nearest",
		HandoffEvery:        50,
		SnapshotEveryEpochs: 3,
		SaturationLoad:      5,
	}
	full, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantRes, err := full.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(wantRes.Snapshots) == 0 {
		t.Fatal("no snapshots recorded")
	}
	snap := wantRes.Snapshots[0]
	resumed, err := cluster.Resume(cfg, snap)
	if err != nil {
		t.Fatal(err)
	}
	gotRes, err := resumed.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotRes, wantRes) {
		t.Error("resumed run diverged from uninterrupted run")
	}

	// A corrupted checkpoint must be rejected, not silently continued.
	bad := snap
	bad.Cells = append([]cluster.CellSnap(nil), snap.Cells...)
	bad.Cells[0].Arrivals++
	if _, err := cluster.Resume(cfg, bad); err == nil {
		t.Error("Resume accepted a corrupted snapshot")
	}
}

// Catalog overlap: with full overlap no handoff is refused for a missing
// item; with zero overlap every roamer carries cell-local content and the
// only accepted handoffs are push-side (rank ≤ shared never holds).
func TestCatalogOverlap(t *testing.T) {
	mk := func(overlap float64) *cluster.Result {
		cfg := cluster.Config{
			Cells:          4,
			Base:           base(t),
			CatalogOverlap: overlap,
			Mobility:       cluster.Mobility{Rate: 0.1, AttachDelay: 1},
			HandoffEvery:   40,
			CollectTrace:   true,
		}
		cfg.Base.Horizon = 200
		c, err := cluster.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	full := mk(1)
	for _, e := range full.Trace {
		if e.Reason == trace.RefusalNoItem {
			t.Fatal("full overlap refused a handoff for a missing item")
		}
	}
	none := mk(0)
	sawNoItem := false
	for _, e := range none.Trace {
		if e.Reason == trace.RefusalNoItem {
			sawNoItem = true
		}
	}
	if !sawNoItem {
		t.Error("zero overlap never refused a cell-local item")
	}
}

func TestValidate(t *testing.T) {
	good := func() cluster.Config {
		return cluster.Config{Cells: 2, Base: base(t), HandoffEvery: 40}
	}
	cases := []struct {
		name string
		mut  func(*cluster.Config)
	}{
		{"zero cells", func(c *cluster.Config) { c.Cells = 0 }},
		{"cells beyond a trace event's int32 cell", func(c *cluster.Config) { c.Cells = math.MaxInt32 + 1 }},
		{"overlap > 1", func(c *cluster.Config) { c.CatalogOverlap = 1.5 }},
		{"negative rate", func(c *cluster.Config) { c.Mobility.Rate = -1 }},
		{"negative delay", func(c *cluster.Config) { c.Mobility.AttachDelay = -1 }},
		{"mobility without epoch", func(c *cluster.Config) { c.Mobility.Rate = 1; c.HandoffEvery = 0 }},
		{"unknown routing", func(c *cluster.Config) { c.Routing = "teleport" }},
		{"hot cell out of range", func(c *cluster.Config) { c.HotCell = 7; c.HotFactor = 2 }},
		{"negative hot factor", func(c *cluster.Config) { c.HotFactor = -2 }},
		{"negative saturation load", func(c *cluster.Config) { c.SaturationLoad = -1 }},
		{"negative telemetry cadence", func(c *cluster.Config) { c.TelemetryEvery = -1 }},
		{"shared tracer", func(c *cluster.Config) { c.Base.Tracer = &discard{} }},
	}
	for _, tc := range cases {
		cfg := good()
		tc.mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: Validate accepted the config", tc.name)
		}
	}
	if err := good().Validate(); err != nil {
		t.Errorf("good config rejected: %v", err)
	}
}

type discard struct{}

func (discard) Event(trace.Event) {}
