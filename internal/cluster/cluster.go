// Package cluster federates N independent broadcast cells — each a full
// core.Server with its own catalog, policies, clients and telemetry — into
// one multi-cell simulation with client mobility, cross-cell routing and
// cluster-level saturation detection. This is the path from one cell to
// "millions of users": population scales per-cell × cell count.
//
// # Determinism
//
// The cluster is bulk-synchronous. The horizon is divided into handoff
// epochs of length HandoffEvery; within an epoch every cell advances
// independently (driven as internal/workpool jobs, so a 64-cell federation
// uses every core), and all cross-cell interaction happens at the epoch
// barrier, sequentially, in cell-index order:
//
//  1. sample every cell's pending load (the routing and saturation signal);
//  2. per cell, draw which pending requests roam (one Bernoulli(p) draw per
//     request from that cell's own mobility stream, p = 1−exp(−Rate·Δ));
//  3. route each roamer (registered policy: nearest, least-loaded,
//     class-affine) and schedule its re-attachment at barrier+AttachDelay
//     on the destination cell's event heap.
//
// Injections scheduled at a barrier fire inside the destination's next
// parallel advance and touch only that cell's state, so the parallel phase
// shares nothing and the barrier phase is single-threaded: results are
// bit-identical at any worker count, matching the repository's determinism
// contract.
//
// # Catalog overlap
//
// Ranks 1..round(CatalogOverlap·D) are global items replicated in every
// cell (same length everywhere); higher ranks are cell-local content with
// per-cell lengths. A roamer pulling a cell-local item cannot be served
// elsewhere — the destination refuses the handoff ("no-item").
package cluster

import (
	"fmt"
	"math"

	"hybridqos/internal/catalog"
	"hybridqos/internal/core"
	"hybridqos/internal/rng"
	"hybridqos/internal/telemetry"
	"hybridqos/internal/trace"
	"hybridqos/internal/workpool"
)

// Mobility parameterises the client-mobility model.
type Mobility struct {
	// Rate is the per-request roam intensity: each pending request roams
	// within a handoff epoch of length Δ with probability 1−exp(−Rate·Δ).
	// 0 disables mobility.
	Rate float64
	// AttachDelay is the transit time between detaching from the origin
	// cell and re-attaching at the destination. The request's deadline
	// budget keeps running in transit.
	AttachDelay float64
}

// Config parameterises a cluster run.
type Config struct {
	// Cells is the number of broadcast cells (≥ 1).
	Cells int
	// Base is the per-cell engine configuration template. Cell i runs a
	// copy with its own derived seed, its own catalog (see CatalogOverlap)
	// and its own tracer/telemetry. Stateful injected components (Tracer,
	// Telemetry, Arrivals, Items, Loss, Uplink, PullPolicy) must be nil —
	// one instance cannot be shared across parallel cells; use PerCell to
	// install per-cell instances.
	Base core.Config
	// CatalogOverlap is the fraction of catalog ranks replicated in every
	// cell, in [0,1]. Ranks 1..round(Overlap·D) are global; the rest are
	// cell-local content whose lengths are redrawn per cell and whose
	// pending pulls cannot follow a roaming client. With a single cell the
	// whole catalog is effectively global.
	CatalogOverlap float64
	// Mobility is the client-mobility model; the zero value disables it.
	Mobility Mobility
	// Routing names the cross-cell routing policy ("nearest",
	// "least-loaded", "class-affine"); empty selects DefaultRouting.
	Routing string
	// HandoffEvery is the epoch length Δ between cross-cell barriers, in
	// broadcast units. 0 runs the whole horizon as one epoch (valid only
	// with mobility disabled).
	HandoffEvery float64
	// HotCell, with HotFactor > 1, multiplies one cell's arrival rate —
	// the asymmetric-load scenario saturation detection and mobility-driven
	// re-optimisation are about. HotFactor 0 disables the hot spot.
	HotCell   int
	HotFactor float64
	// SaturationLoad is the pending-load high-water mark of the saturation
	// detector: a cell whose load at a barrier is ≥ SaturationLoad for
	// SaturationEpochs consecutive barriers is marked saturated (onset time
	// recorded). 0 disables detection.
	SaturationLoad int
	// SaturationEpochs is the consecutive-barrier count; 0 means 1.
	SaturationEpochs int
	// SnapshotEveryEpochs records a cluster Snapshot every that many epochs
	// (at the barrier). 0 disables periodic snapshots.
	SnapshotEveryEpochs int
	// CollectTrace buffers every cell's event stream (cell-stamped) and
	// exposes the deterministic time-merged stream on the Result.
	CollectTrace bool
	// TelemetryEvery, when positive, attaches a per-cell telemetry
	// collector with that snapshot cadence (snapshots are labelled with the
	// cell ID and embedded in the cell's trace stream when CollectTrace is
	// set).
	TelemetryEvery float64
	// Exemplars, with TelemetryEvery > 0 and Base.Spans set, keeps up to
	// that many exemplar span IDs per (class, delay bucket) in each cell's
	// collector, sampled with a deterministic per-cell reservoir. 0
	// disables exemplars.
	Exemplars int
	// PerCell, when non-nil, is called with each cell's derived core config
	// before the cell is built — the hook for installing per-cell stateful
	// components (loss models, uplink channels, workloads).
	PerCell func(cell int, cfg *core.Config) error
}

// Validate reports whether the cluster configuration is usable. Per-cell
// engine configs are additionally validated by core.New.
func (c Config) Validate() error {
	if c.Cells < 1 {
		return fmt.Errorf("cluster: cell count %d < 1", c.Cells)
	}
	if c.Cells > math.MaxInt32 {
		return fmt.Errorf("cluster: cell count %d exceeds %d, the largest cell a trace event carries", c.Cells, math.MaxInt32)
	}
	if c.Base.Tracer != nil || c.Base.Telemetry != nil {
		return fmt.Errorf("cluster: Base.Tracer/Telemetry must be nil (the cluster owns per-cell tracing; see CollectTrace and TelemetryEvery)")
	}
	if c.Base.Arrivals != nil || c.Base.Items != nil || c.Base.Loss != nil || c.Base.Uplink != nil || c.Base.PullPolicy != nil {
		return fmt.Errorf("cluster: stateful injected components in Base must be nil — install per-cell instances via PerCell")
	}
	if c.CatalogOverlap < 0 || c.CatalogOverlap > 1 || math.IsNaN(c.CatalogOverlap) {
		return fmt.Errorf("cluster: catalog overlap %g outside [0,1]", c.CatalogOverlap)
	}
	if c.Mobility.Rate < 0 || math.IsNaN(c.Mobility.Rate) || math.IsInf(c.Mobility.Rate, 0) {
		return fmt.Errorf("cluster: invalid mobility rate %g", c.Mobility.Rate)
	}
	if c.Mobility.AttachDelay < 0 || math.IsNaN(c.Mobility.AttachDelay) || math.IsInf(c.Mobility.AttachDelay, 0) {
		return fmt.Errorf("cluster: invalid attach delay %g", c.Mobility.AttachDelay)
	}
	if c.HandoffEvery < 0 || math.IsNaN(c.HandoffEvery) || math.IsInf(c.HandoffEvery, 0) {
		return fmt.Errorf("cluster: invalid handoff epoch %g", c.HandoffEvery)
	}
	if c.Mobility.Rate > 0 && c.Cells > 1 && c.HandoffEvery == 0 {
		return fmt.Errorf("cluster: mobility needs a positive HandoffEvery epoch")
	}
	if !KnownRouting(c.Routing) {
		_, err := routings.Lookup(c.Routing) // the registry's *policy.UnknownError
		return err
	}
	if c.HotFactor != 0 {
		if c.HotFactor <= 0 || math.IsNaN(c.HotFactor) || math.IsInf(c.HotFactor, 0) {
			return fmt.Errorf("cluster: invalid hot-cell factor %g", c.HotFactor)
		}
		if c.HotCell < 0 || c.HotCell >= c.Cells {
			return fmt.Errorf("cluster: hot cell %d out of [0,%d)", c.HotCell, c.Cells)
		}
	}
	if c.SaturationLoad < 0 {
		return fmt.Errorf("cluster: negative saturation load %d", c.SaturationLoad)
	}
	if c.SaturationEpochs < 0 {
		return fmt.Errorf("cluster: negative saturation epoch count %d", c.SaturationEpochs)
	}
	if c.SnapshotEveryEpochs < 0 {
		return fmt.Errorf("cluster: negative snapshot cadence %d", c.SnapshotEveryEpochs)
	}
	if c.TelemetryEvery < 0 || math.IsNaN(c.TelemetryEvery) || math.IsInf(c.TelemetryEvery, 0) {
		return fmt.Errorf("cluster: invalid telemetry cadence %g", c.TelemetryEvery)
	}
	if c.Exemplars < 0 {
		return fmt.Errorf("cluster: negative exemplar count %d", c.Exemplars)
	}
	return nil
}

// cellState is one cell plus its cluster-side bookkeeping. During the
// parallel phase a cellState is touched only by its own workpool job; the
// barrier phase owns them all, single-threaded.
//
//qos:sharded
type cellState struct {
	id     int
	srv    *core.Server
	buf    *trace.Buffer
	mobRng *rng.Source
	sat    satState
}

// Cluster is a running multi-cell federation. Build with New, drive with
// Step (or Run, which steps to the horizon and aggregates).
type Cluster struct {
	cfg      Config
	cells    []*cellState
	router   Router
	shared   int // catalog ranks 1..shared are global
	delta    float64
	roamProb float64
	epoch    int
	now      float64
	started  bool
	done     bool
	snaps    []Snapshot
}

// New builds a cluster: N cells with derived seeds and overlapped catalogs,
// a routing policy, and per-cell mobility streams. Construction is
// single-threaded, so it counts as a barrier phase.
//
//qos:barrier
func New(cfg Config) (*Cluster, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Base.Catalog == nil {
		return nil, fmt.Errorf("cluster: nil base catalog")
	}
	if cfg.Base.Classes == nil {
		return nil, fmt.Errorf("cluster: nil base classification")
	}
	c := &Cluster{cfg: cfg, shared: sharedRanks(cfg), delta: cfg.HandoffEvery}
	if c.delta <= 0 || c.delta > cfg.Base.Horizon {
		c.delta = cfg.Base.Horizon
	}
	if cfg.Mobility.Rate > 0 && cfg.Cells > 1 {
		c.roamProb = -math.Expm1(-cfg.Mobility.Rate * c.delta)
		r, err := NewRouter(cfg.Routing, cfg.Cells, cfg.Base.Classes.NumClasses())
		if err != nil {
			return nil, err
		}
		c.router = r
	}
	mobRoot := rng.New(cfg.Base.Seed).Split("cluster-mobility")
	for i := 0; i < cfg.Cells; i++ {
		cc := cfg.Base
		if i > 0 {
			// Cell 0 keeps the base seed so a 1-cell, mobility-off cluster
			// is bit-identical to a plain core.Run of the base config.
			cc.Seed = cfg.Base.Seed + uint64(i)*0x9E3779B97F4A7C15
		}
		cat, err := cellCatalog(cfg, c.shared, i)
		if err != nil {
			return nil, err
		}
		cc.Catalog = cat
		if cfg.HotFactor > 0 && i == cfg.HotCell {
			cc.Lambda *= cfg.HotFactor
		}
		if cc.Spans != nil {
			// Namespace span IDs per cell (cell index in the high bits) so
			// IDs stay globally unique after MergeByTime and cross-cell
			// parent links resolve unambiguously.
			sc := *cc.Spans
			sc.IDBase = int64(i+1) << 40
			cc.Spans = &sc
		}
		cs := &cellState{id: i, mobRng: mobRoot.Split(fmt.Sprintf("cell-%d", i))}
		if cfg.CollectTrace {
			cs.buf = &trace.Buffer{}
			cc.Tracer = trace.Tag{Cell: int32(i), Next: cs.buf}
		}
		if cfg.TelemetryEvery > 0 {
			opts := telemetry.Options{SnapshotEvery: cfg.TelemetryEvery, Cell: i}
			if cfg.Exemplars > 0 && cc.Spans != nil {
				opts.Exemplars = cfg.Exemplars
				opts.ExemplarRNG = rng.New(cc.Seed).Split("exemplars")
			}
			tele, err := telemetry.New(opts)
			if err != nil {
				return nil, err
			}
			cc.Telemetry = tele
		}
		if cfg.PerCell != nil {
			if err := cfg.PerCell(i, &cc); err != nil {
				return nil, fmt.Errorf("cluster: per-cell hook for cell %d: %w", i, err)
			}
		}
		srv, err := core.New(cc)
		if err != nil {
			return nil, fmt.Errorf("cluster: cell %d: %w", i, err)
		}
		cs.srv = srv
		c.cells = append(c.cells, cs)
	}
	return c, nil
}

// sharedRanks returns the size of the global catalog prefix.
func sharedRanks(cfg Config) int {
	d := cfg.Base.Catalog.D()
	if cfg.Cells == 1 {
		return d
	}
	return int(math.Round(cfg.CatalogOverlap * float64(d)))
}

// cellCatalog derives cell i's catalog: the global rank prefix keeps the
// base lengths, cell-local ranks resample their length from the base
// catalog's empirical length distribution using a per-cell stream.
func cellCatalog(cfg Config, shared, cell int) (*catalog.Catalog, error) {
	base := cfg.Base.Catalog
	d := base.D()
	if shared >= d {
		return base, nil
	}
	lengths := make([]float64, d)
	for r := 1; r <= d; r++ {
		lengths[r-1] = base.Length(r)
	}
	lr := rng.New(cfg.Base.Seed).Split(fmt.Sprintf("cluster-catalog-%d", cell))
	for r := shared; r < d; r++ {
		lengths[r] = base.Length(1 + lr.Intn(d))
	}
	return catalog.FromLengths(lengths, base.Theta())
}

// SharedRanks returns the size of the global catalog prefix (ranks
// 1..SharedRanks are replicated in every cell).
func (c *Cluster) SharedRanks() int { return c.shared }

// Epoch returns the number of completed handoff epochs.
func (c *Cluster) Epoch() int { return c.epoch }

// Now returns the cluster's current barrier time.
func (c *Cluster) Now() float64 { return c.now }

// Step advances every cell one handoff epoch in parallel (workpool jobs),
// then runs the cross-cell barrier: load sampling, saturation detection,
// mobility extraction, routing and re-attachment scheduling. It reports
// whether the horizon has been reached. After done, call Result.
//
//qos:barrier
func (c *Cluster) Step() (bool, error) {
	if c.done {
		return true, nil
	}
	if !c.started {
		for _, cs := range c.cells {
			cs.srv.Start()
		}
		c.started = true
	}
	c.epoch++
	t := float64(c.epoch) * c.delta
	if t > c.cfg.Base.Horizon {
		t = c.cfg.Base.Horizon
	}
	if err := workpool.Run(len(c.cells), func(i int) error {
		//lint:allow barriersafe parallel phase: job i advances only cell i; no cross-cell state is touched until the barrier
		c.cells[i].srv.AdvanceTo(t)
		return nil
	}); err != nil {
		return false, err
	}
	c.now = t
	c.barrier(t)
	if t >= c.cfg.Base.Horizon {
		c.done = true
	}
	return c.done, nil
}

// barrier runs the sequential cross-cell phase at barrier time t. Every
// cell's clock is exactly at t; nothing here advances simulated time.
//
//qos:barrier
func (c *Cluster) barrier(t float64) {
	loads := make([]int, len(c.cells))
	for i, cs := range c.cells {
		loads[i] = cs.srv.PendingLoad()
	}
	if c.cfg.SaturationLoad > 0 {
		for i, cs := range c.cells {
			cs.sat.observe(loads[i], t, c.cfg.SaturationLoad, max(1, c.cfg.SaturationEpochs))
		}
	}
	if c.roamProb > 0 && t < c.cfg.Base.Horizon {
		c.exchange(t, loads)
	}
	if c.cfg.SnapshotEveryEpochs > 0 && c.epoch%c.cfg.SnapshotEveryEpochs == 0 {
		c.snaps = append(c.snaps, c.takeSnapshot(t))
	}
}

// exchange extracts, routes and re-schedules this barrier's roamers,
// sequentially in cell-index order.
//
//qos:barrier
func (c *Cluster) exchange(t float64, loads []int) {
	horizon := c.cfg.Base.Horizon
	for i, cs := range c.cells {
		p := c.roamProb
		r := cs.mobRng
		roamers := cs.srv.ExtractRoamers(func() bool { return r.Float64() < p })
		loads[i] -= len(roamers)
		for _, rm := range roamers {
			dst := c.router.Route(i, rm.Class, loads, r)
			if dst == i || dst < 0 || dst >= len(c.cells) {
				panic(fmt.Sprintf("cluster: routing policy %q returned cell %d for a roamer leaving cell %d of %d", c.router.Name(), dst, i, len(c.cells)))
			}
			dc := c.cells[dst]
			if rm.Item > c.shared {
				// Cell-local content does not exist at the destination.
				dc.srv.RefuseHandoff(rm.Item, rm.Class, trace.RefusalNoItem, rm.Arrival, rm.Span)
				continue
			}
			attach := t + c.cfg.Mobility.AttachDelay
			if attach > horizon {
				dc.srv.RefuseHandoff(rm.Item, rm.Class, trace.RefusalHorizon, rm.Arrival, rm.Span)
				continue
			}
			loads[dst]++
			dc.srv.ScheduleInject(attach, rm.Item, rm.Class, rm.Arrival, rm.Attempts, rm.Span, nil)
		}
	}
}

// Run steps the cluster to the horizon and returns the aggregated result.
func (c *Cluster) Run() (*Result, error) {
	for {
		done, err := c.Step()
		if err != nil {
			return nil, err
		}
		if done {
			break
		}
	}
	return c.Result(), nil
}

// CellResult is one cell's outcome.
type CellResult struct {
	// Cell is the cell index.
	Cell int
	// Metrics is the cell's full engine metrics.
	Metrics *core.Metrics
	// Saturated reports whether the saturation detector fired, and
	// SaturatedAt the barrier time of onset (-1 when it never fired).
	Saturated   bool
	SaturatedAt float64
	// FinalLoad is the cell's pending load at the final barrier.
	FinalLoad int
}

// Result is a finished cluster run.
type Result struct {
	// PerCell holds each cell's outcome, cell 0 first.
	PerCell []CellResult
	// Aggregate pools the per-class metrics across cells: counters summed,
	// delay statistics and histograms merged. Queue and bandwidth trackers
	// are per-cell quantities and stay in PerCell only.
	Aggregate *core.Metrics
	// SaturatedCells counts cells whose saturation detector fired.
	SaturatedCells int
	// Snapshots are the periodic barrier snapshots (SnapshotEveryEpochs).
	Snapshots []Snapshot
	// Trace is the deterministic time-merged, cell-stamped event stream
	// (CollectTrace); nil otherwise.
	Trace []trace.Event
}

// Result finalises every cell and aggregates the run. Call once, after Step
// reported done — the parallel phase is over, so this is barrier territory.
//
//qos:barrier
func (c *Cluster) Result() *Result {
	res := &Result{}
	var metrics []*core.Metrics
	var streams [][]trace.Event
	for _, cs := range c.cells {
		m := cs.srv.Finish()
		metrics = append(metrics, m)
		res.PerCell = append(res.PerCell, CellResult{
			Cell:        cs.id,
			Metrics:     m,
			Saturated:   cs.sat.saturated,
			SaturatedAt: cs.sat.onset(),
			FinalLoad:   cs.srv.PendingLoad(),
		})
		if cs.sat.saturated {
			res.SaturatedCells++
		}
		if cs.buf != nil {
			streams = append(streams, cs.buf.Events)
		}
	}
	res.Aggregate = mergeMetrics(c.cfg.Base, metrics)
	res.Snapshots = c.snaps
	if len(streams) > 0 {
		res.Trace = trace.MergeByTime(streams...)
	}
	return res
}

// mergeMetrics pools per-class metrics across cells.
func mergeMetrics(base core.Config, cells []*core.Metrics) *core.Metrics {
	if len(cells) == 0 {
		return nil
	}
	agg := &core.Metrics{Horizon: cells[0].Horizon, Cutoff: cells[0].Cutoff}
	for ci := range cells[0].PerClass {
		cm := &core.ClassMetrics{
			Class:  cells[0].PerClass[ci].Class,
			Weight: cells[0].PerClass[ci].Weight,
		}
		if base.DelayHistBound > 0 {
			cm.DelayHist.SetBound(base.DelayHistBound)
		}
		for _, m := range cells {
			src := m.PerClass[ci]
			cm.Arrivals += src.Arrivals
			cm.Served += src.Served
			cm.Dropped += src.Dropped
			cm.Expired += src.Expired
			cm.UplinkLost += src.UplinkLost
			cm.CacheHits += src.CacheHits
			cm.Retries += src.Retries
			cm.Failed += src.Failed
			cm.Shed += src.Shed
			cm.HandoffsIn += src.HandoffsIn
			cm.HandoffsOut += src.HandoffsOut
			cm.HandoffRefusals += src.HandoffRefusals
			cm.Delay.Merge(&src.Delay)
			cm.PushDelay.Merge(&src.PushDelay)
			cm.PullDelay.Merge(&src.PullDelay)
			cm.DelayHist.Merge(&src.DelayHist)
		}
		agg.PerClass = append(agg.PerClass, cm)
	}
	for _, m := range cells {
		agg.PushBroadcasts += m.PushBroadcasts
		agg.PullTransmissions += m.PullTransmissions
		agg.BlockedTransmissions += m.BlockedTransmissions
		agg.CorruptedPushes += m.CorruptedPushes
		agg.CorruptedPulls += m.CorruptedPulls
	}
	return agg
}
