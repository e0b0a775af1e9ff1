package hybridqos

import (
	"errors"
	"fmt"
	"os"

	"hybridqos/internal/cluster"
	"hybridqos/internal/trace"
)

// ClusterOptions federates the configured system into a multi-cell cluster
// (see Config.Cluster): N independent cells, each running the full engine
// over its own catalog and client population, with clients roaming between
// cells mid-request. The cluster is bulk-synchronous and bit-identical at
// any worker count; SimulateCluster runs it.
type ClusterOptions struct {
	// Cells is the number of broadcast cells (≥ 1).
	Cells int
	// CatalogOverlap is the fraction of catalog ranks replicated in every
	// cell, in [0,1]: shared ranks are global content a roamer can still
	// pull at its destination; the rest is cell-local and roaming away from
	// it loses the request ("no-item" refusal).
	CatalogOverlap float64
	// MobilityRate is the per-pending-request roam intensity (a request
	// roams within an epoch of length HandoffEvery with probability
	// 1−exp(−rate·epoch)). 0 disables mobility.
	MobilityRate float64
	// AttachDelay is the inter-cell transit time in broadcast units; the
	// request deadline keeps running in transit.
	AttachDelay float64
	// Routing names the cross-cell routing policy; RoutingPolicies lists
	// the registry ("nearest", "least-loaded", "class-affine"; empty =
	// "nearest").
	Routing string
	// HandoffEvery is the epoch length between cross-cell barriers; 0 runs
	// the horizon as one epoch (mobility off only).
	HandoffEvery float64
	// HotCell and HotFactor (> 1) multiply one cell's request rate — the
	// asymmetric-load scenario. HotFactor 0 disables the hot spot.
	HotCell   int
	HotFactor float64
	// SaturationLoad, when positive, marks a cell saturated once its
	// pending load stays at or above this for SaturationEpochs consecutive
	// barriers.
	SaturationLoad   int
	SaturationEpochs int
}

// RoutingPolicies returns the sorted registered cross-cell routing policy
// names (built-ins plus externally registered ones).
func RoutingPolicies() []string { return cluster.RoutingNames() }

// ClusterCellResult summarises one cell of a cluster run.
type ClusterCellResult struct {
	// Cell is the cell index.
	Cell int
	// OverallDelay is the cell's request-weighted mean access time.
	OverallDelay float64
	// Served pools the cell's served requests across classes.
	Served int64
	// HandoffsIn, HandoffsOut and HandoffRefusals count the cell's roaming
	// traffic: accepted arrivals, departures, and turned-away roamers.
	HandoffsIn, HandoffsOut, HandoffRefusals int64
	// Saturated reports whether the saturation detector fired; SaturatedAt
	// is the onset time (-1 when it never fired).
	Saturated   bool
	SaturatedAt float64
	// FinalLoad is the cell's pending backlog at the horizon.
	FinalLoad int
}

// ClusterResult reports a cluster run: the pooled per-class QoS plus
// per-cell summaries.
type ClusterResult struct {
	// Cells echoes the federation size; SharedRanks is the size of the
	// global catalog prefix.
	Cells, SharedRanks int
	// PerClass pools each class's outcomes across every cell: delay
	// statistics merged, counters summed. DropRate/P95 fields not
	// meaningful cluster-wide stay zero when unavailable.
	PerClass []ClassResult
	// OverallDelay is the request-weighted mean access time across the
	// whole federation; TotalCost is Σ_c q_c · delay_c over pooled means.
	OverallDelay, TotalCost float64
	// Handoffs and HandoffRefusals total the accepted and refused roaming
	// re-attachments.
	Handoffs, HandoffRefusals int64
	// SaturatedCells counts cells whose saturation detector fired.
	SaturatedCells int
	// PerCell has one summary per cell, cell 0 first.
	PerCell []ClusterCellResult
}

// ErrClusterSnapshotHook is returned by SimulateCluster and
// WriteClusterTrace when Config.Telemetry sets OnSnapshot: cluster cells
// record their snapshots into the trace only and never call the hook.
var ErrClusterSnapshotHook = errors.New("hybridqos: Telemetry.OnSnapshot is single-cell; cluster runs never call it")

// clusterConfig lowers the public options onto internal/cluster, reusing
// the facade's base-config lowering for the per-cell template.
func (c Config) clusterConfig() (cluster.Config, error) {
	if c.Cluster == nil {
		return cluster.Config{}, fmt.Errorf("hybridqos: Config.Cluster not set")
	}
	base, err := c.build()
	if err != nil {
		return cluster.Config{}, err
	}
	// The cluster builds one collector per cell from TelemetryEvery.
	base.Telemetry = nil
	o := c.Cluster
	cc := cluster.Config{
		Cells:            o.Cells,
		Base:             base,
		CatalogOverlap:   o.CatalogOverlap,
		Mobility:         cluster.Mobility{Rate: o.MobilityRate, AttachDelay: o.AttachDelay},
		Routing:          o.Routing,
		HandoffEvery:     o.HandoffEvery,
		HotCell:          o.HotCell,
		HotFactor:        o.HotFactor,
		SaturationLoad:   o.SaturationLoad,
		SaturationEpochs: o.SaturationEpochs,
	}
	if c.Telemetry != nil {
		if c.Telemetry.OnSnapshot != nil {
			return cluster.Config{}, ErrClusterSnapshotHook
		}
		cc.TelemetryEvery = c.Telemetry.SnapshotEvery
	}
	cc.Exemplars = c.exemplarCount()
	return cc, nil
}

// SimulateCluster runs the configured system as a multi-cell federation and
// aggregates the results. One deterministic cluster run is performed
// (Config.Replications applies to Simulate, not to cluster runs); the cells
// advance in parallel on the shared work pool, bit-identically at any
// worker count.
func SimulateCluster(c Config) (*ClusterResult, error) {
	cc, err := c.clusterConfig()
	if err != nil {
		return nil, err
	}
	cl, err := cluster.New(cc)
	if err != nil {
		return nil, err
	}
	res, err := cl.Run()
	if err != nil {
		return nil, err
	}
	out := &ClusterResult{
		Cells:          cc.Cells,
		SharedRanks:    cl.SharedRanks(),
		SaturatedCells: res.SaturatedCells,
	}
	for _, cm := range res.Aggregate.PerClass {
		out.PerClass = append(out.PerClass, classResult(cm))
		out.Handoffs += cm.HandoffsIn
		out.HandoffRefusals += cm.HandoffRefusals
	}
	out.OverallDelay = res.Aggregate.OverallMeanDelay()
	out.TotalCost = res.Aggregate.TotalCost()
	for _, pc := range res.PerCell {
		cell := ClusterCellResult{
			Cell:         pc.Cell,
			OverallDelay: pc.Metrics.OverallMeanDelay(),
			Saturated:    pc.Saturated,
			SaturatedAt:  pc.SaturatedAt,
			FinalLoad:    pc.FinalLoad,
		}
		for _, cm := range pc.Metrics.PerClass {
			cell.Served += cm.Served
			cell.HandoffsIn += cm.HandoffsIn
			cell.HandoffsOut += cm.HandoffsOut
			cell.HandoffRefusals += cm.HandoffRefusals
		}
		out.PerCell = append(out.PerCell, cell)
	}
	return out, nil
}

// WriteClusterTrace runs ONE cluster simulation with per-cell event tracing
// enabled, merges the cell-stamped streams into a single time-ordered trace
// (the cluster analogue of WriteTrace) and writes it to path as JSON lines.
// It returns the number of events written; cmd/traceinfo renders the
// per-cell breakdown from the Cell stamps.
func WriteClusterTrace(c Config, path string) (int64, error) {
	cc, err := c.clusterConfig()
	if err != nil {
		return 0, err
	}
	cc.CollectTrace = true
	cl, err := cluster.New(cc)
	if err != nil {
		return 0, err
	}
	res, err := cl.Run()
	if err != nil {
		return 0, err
	}
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	j := trace.NewJSONL(f)
	for _, e := range res.Trace {
		j.Event(e)
	}
	if err := j.Flush(); err != nil {
		return 0, err
	}
	return j.Events(), f.Close()
}
