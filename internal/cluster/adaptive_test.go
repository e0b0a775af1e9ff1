package cluster_test

import (
	"testing"

	"hybridqos/internal/adaptive"
	"hybridqos/internal/cluster"
	"hybridqos/internal/trace"
)

// The adaptive planner must be drivable from a cluster cell's event stream:
// under a mobility-driven load shift (a hot cell eight times over its
// neighbours, roamers spreading by least-loaded routing), feeding the hot
// cell's observed arrival ranks into an EpochController re-estimates the
// workload and re-optimises K away from a deliberately bad initial cutoff.
func TestAdaptiveReplanFromClusterTrace(t *testing.T) {
	basec := base(t)
	cfg := cluster.Config{
		Cells:          4,
		Base:           basec,
		CatalogOverlap: 1,
		Mobility:       cluster.Mobility{Rate: 0.05, AttachDelay: 1},
		Routing:        "least-loaded",
		HandoffEvery:   40,
		HotCell:        2,
		HotFactor:      8,
		CollectTrace:   true,
	}
	c, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}

	d := basec.Catalog.D()
	lengths := make([]float64, d)
	for r := 1; r <= d; r++ {
		lengths[r-1] = basec.Catalog.Length(r)
	}
	const initialCutoff = 2 // deliberately far from optimal for λ≈40
	ctl, err := adaptive.NewEpochController(adaptive.Planner{
		Classes: basec.Classes,
		Alpha:   basec.Alpha,
		Lengths: lengths,
		KMin:    0,
		KMax:    d,
	}, d, 100, initialCutoff)
	if err != nil {
		t.Fatal(err)
	}

	// Replay the hot cell's arrivals (local and handed-off) through the
	// controller, exactly as a per-cell controller embedded in the cell
	// would see them.
	observed, replans := 0, 0
	for _, e := range res.Trace {
		if e.Cell != 2 {
			continue
		}
		if e.Kind != trace.KindArrival && e.Kind != trace.KindHandoff {
			continue
		}
		observed++
		if ctl.Observe(e.Item, e.T) {
			replans++
		}
	}
	if observed < 1000 {
		t.Fatalf("hot cell produced only %d arrivals; load shift too weak for estimation", observed)
	}
	if replans == 0 {
		t.Fatal("controller never re-planned despite epoch boundaries passing")
	}
	if ctl.Cutoff() == initialCutoff {
		t.Errorf("re-plan kept the deliberately bad cutoff %d", initialCutoff)
	}
	last := ctl.History[len(ctl.History)-1]
	if last.Lambda <= basec.Lambda {
		t.Errorf("estimated λ=%g does not reflect the hot cell's 8× load", last.Lambda)
	}
}
