// Package hybridqos is a library for differentiated-QoS data broadcasting in
// asymmetric wireless networks. It reproduces the hybrid push/pull scheduler
// with priority-based service classification of Saxena, Basu, Das and
// Pinotti, "A New Service Classification Strategy in Hybrid Scheduling to
// Support Differentiated QoS in Wireless Data Networks" (ICPP 2005):
//
//   - a server database of D variable-length items with Zipf(θ) popularity;
//   - a cutoff K splitting the catalog into a flat-broadcast push set (the K
//     hottest items) and an on-demand pull set;
//   - client service classes (Class-A highest priority) with Zipf-skewed
//     populations;
//   - pull selection by the importance factor γ_i = α·S_i + (1−α)·Q_i, where
//     S_i = R_i/L_i² is the stretch and Q_i the summed priority of the item's
//     pending requesters;
//   - per-class bandwidth pools with Poisson demand and blocking;
//   - cutoff-point optimisation minimising delay or total prioritised cost.
//
// The package front-ends a deterministic discrete-event simulator and the
// paper's queueing-analytic models. Entry points: Simulate (replicated
// simulation), Predict (analytic model), OptimizeCutoff (simulation-based
// sweep) and PredictOptimalCutoff (model-based sweep).
package hybridqos

import (
	"fmt"
	"math"
	"os"

	"hybridqos/internal/adaptive"
	"hybridqos/internal/airindex"
	"hybridqos/internal/analytic"
	"hybridqos/internal/bandwidth"
	"hybridqos/internal/cache"
	"hybridqos/internal/catalog"
	"hybridqos/internal/clients"
	"hybridqos/internal/core"
	"hybridqos/internal/faults"
	"hybridqos/internal/policy"
	"hybridqos/internal/rng"
	"hybridqos/internal/sim"
	"hybridqos/internal/span"
	"hybridqos/internal/telemetry"
	"hybridqos/internal/trace"
	"hybridqos/internal/uplink"
	"hybridqos/internal/workload"
	"hybridqos/internal/workpool"
)

// Version identifies the library release.
const Version = "1.0.0"

// Pull policy names accepted by Config.PullPolicy. These are the canonical
// names of the internal policy registry; PullPolicies() lists them at run
// time, including externally registered ones.
const (
	PolicyGamma            = "gamma" // paper's γ(α) importance factor (default)
	PolicyImportanceFactor = "importance-factor"
	PolicyStretch          = "stretch"  // α=1 special case
	PolicyPriority         = "priority" // α=0 special case
	PolicyFCFS             = "fcfs"     // oldest pending request first
	PolicyEDF              = "edf"      // earliest deadline (RequestTTL) first
	PolicyMRF              = "mrf"      // most requests first
	PolicyRxW              = "rxw"      // requests × wait
	PolicyClassicStretch   = "classic-stretch"
)

// Push scheduler names accepted by Config.PushScheduler. PushSchedulers()
// lists the registry at run time.
const (
	PushRoundRobin    = "roundrobin" // paper's flat cycle (default)
	PushFlat          = "flat"       // alias of roundrobin
	PushBroadcastDisk = "broadcast-disk"
	PushSquareRoot    = "square-root"
	PushNone          = "none" // pure pull: no broadcast channel
)

// PullPolicies returns the sorted canonical pull-policy names the registry
// currently knows (built-ins plus any externally registered policies).
func PullPolicies() []string { return policy.PullNames() }

// PushSchedulers returns the sorted canonical push-scheduler names.
func PushSchedulers() []string { return policy.PushNames() }

// BandwidthConfig enables the per-class bandwidth pools and blocking.
type BandwidthConfig struct {
	// Total downlink bandwidth units.
	Total float64
	// Fractions is each class's share (must sum to 1), Class-A first.
	Fractions []float64
	// DemandMean scales the Poisson per-transmission bandwidth demand.
	DemandMean float64
	// AllowBorrow lets a class spill into LOWER-priority pools (extension).
	AllowBorrow bool
}

// Config describes a complete system. The zero value is not valid; start
// from PaperConfig and adjust.
type Config struct {
	// NumItems is the catalog size D.
	NumItems int
	// Theta is the Zipf access skew (paper sweeps 0.20–1.40).
	Theta float64
	// Lambda is the aggregate Poisson request rate per broadcast unit.
	Lambda float64
	// Cutoff is K: items 1..K pushed, the rest pulled.
	Cutoff int
	// Alpha mixes stretch (α=1) and priority (α=0) in the pull selection.
	Alpha float64
	// ClassWeights are the per-class priorities, highest class first and
	// strictly decreasing (paper: 3,2,1).
	ClassWeights []float64
	// PopulationSkew is the Zipf θ of the client-class split (fewest
	// premium clients). 0 = uniform.
	PopulationSkew float64
	// Bandwidth, when non-nil, enables blocking.
	Bandwidth *BandwidthConfig
	// PullPolicy selects the pull scheduler by name from the policy
	// registry; empty means the paper's importance factor at Alpha. See
	// PullPolicies for the known names.
	PullPolicy string
	// PushScheduler selects the push scheduler by name; empty means the
	// paper's flat round-robin, "none" disables pushing entirely (pure
	// pull). See PushSchedulers for the known names.
	PushScheduler string
	// PushDisks is the number of speed tiers for the "broadcast-disk" push
	// scheduler; 0 means 3. Ignored by the other push schedulers.
	PushDisks int
	// Horizon is the simulated duration per replication (broadcast units).
	Horizon float64
	// WarmupFraction of the horizon is discarded from statistics.
	WarmupFraction float64
	// Replications is the number of independent runs aggregated by
	// Simulate; 0 means 1, and a negative count is an error.
	Replications int
	// Seed is the base random seed; replication r uses Seed+r.
	Seed uint64
	// DelayHistBound, when positive, caps each per-class delay histogram at
	// that many retained samples per replication (a deterministic systematic
	// reservoir), so long-horizon runs use constant memory. Percentiles
	// (Result.P95Delay) become estimates over at least DelayHistBound/2
	// samples; 0 keeps the exact unbounded histograms. Must be 0 or >= 2.
	// The facade always keeps delay samples, since Result.P95Delay reads
	// them: this field sets core.DelaySamples.Bound.
	DelayHistBound int
	// Rotation, when non-nil, makes item popularity drift: every Period
	// broadcast units the popularity ranking rotates by Shift positions
	// while the push set stays put — the mismatch adaptive cutoff tuning
	// corrects.
	Rotation *RotationConfig
	// RequestTTL, when positive, gives every request a deadline; requests
	// served later than arrival+TTL count as expired, not served.
	RequestTTL float64
	// Uplink, when non-nil, rate-limits the request back-channel: pull
	// requests beyond the token-bucket budget are lost before reaching the
	// server.
	Uplink *UplinkConfig
	// ClientCache, when non-nil, gives every client a broadcast-disk-style
	// item cache; hits cost zero access time.
	ClientCache *ClientCacheConfig
	// Faults, when non-nil, enables the failure model: a lossy downlink
	// (i.i.d. or bursty), client retry with exponential backoff, and
	// class-aware overload shedding. Nil keeps the paper's error-free
	// channel; a zero-valued FaultsConfig is equivalent to nil.
	Faults *FaultsConfig
	// Telemetry, when non-nil, enables the deterministic telemetry layer on
	// one run (replication 0; under OptimizeCutoff, the first cutoff's
	// replication 0): per-class counters, delay histograms and queue/bandwidth
	// gauges, snapshotted into the trace every SnapshotEvery broadcast units.
	// Telemetry never perturbs results — a run with it enabled is
	// bit-identical to the same run without it.
	Telemetry *TelemetryConfig
	// Cluster, when non-nil, federates the system into a multi-cell cluster
	// with client mobility and cross-cell routing; SimulateCluster runs it
	// (Simulate ignores this field).
	Cluster *ClusterOptions
	// Spans, when non-nil, enables deterministic per-request span tracing:
	// head-sampled request lifecycles with scheduler decision provenance,
	// reconstructable into span trees (WriteSpans, cmd/traceinfo -spans).
	// The sampling draws come from a dedicated RNG stream, so a spans-off
	// run is bit-identical to one without this field and a spans-on run is
	// trajectory-identical (same draws and metrics, extra trace events).
	Spans *SpanTraceConfig
}

// SpanTraceConfig parameterises per-request span tracing (Config.Spans).
type SpanTraceConfig struct {
	// Rates are the per-class head-sampling probabilities in [0,1],
	// Class-A first; classes beyond the slice (or an empty slice) sample
	// at rate 1. The decision is made once, at arrival, from a dedicated
	// deterministic stream.
	Rates []float64
	// Exemplars, with Config.Telemetry also set, keeps up to this many
	// exemplar span IDs per (class, delay bucket) in the telemetry
	// collector, chosen by a deterministic reservoir — the bridge from an
	// aggregate latency bucket back to concrete traced requests. 0
	// disables exemplars.
	Exemplars int
}

// TelemetryConfig parameterises the telemetry layer (see Config.Telemetry).
type TelemetryConfig struct {
	// SnapshotEvery is the snapshot cadence in broadcast units (must be
	// positive): every SnapshotEvery units of simulated time the collector's
	// full state — counters, histograms, gauges — is embedded in the trace as
	// a trace.KindSnapshot event and handed to OnSnapshot.
	SnapshotEvery float64
	// OnSnapshot, when non-nil, receives every snapshot as it is taken,
	// rendered in the Prometheus text exposition format, with the simulated
	// time it was taken at. It is called synchronously from the simulation
	// loop of one run — replication 0, and under OptimizeCutoff replication
	// 0 of the first cutoff (kMin) — so calls never overlap and their times
	// strictly increase; keep it fast. Cluster runs never call it, so
	// SimulateCluster and WriteClusterTrace refuse it
	// (ErrClusterSnapshotHook). The field does not survive
	// SaveConfig/LoadConfig.
	OnSnapshot func(simTime float64, prom []byte) `json:"-"`
}

// newCollector builds the collector of one run. exemplars > 0 additionally
// arms exemplar span-ID sampling with a reservoir stream derived from seed.
func (tc *TelemetryConfig) newCollector(exemplars int, seed uint64) (*telemetry.Collector, error) {
	if tc.SnapshotEvery <= 0 || math.IsNaN(tc.SnapshotEvery) || math.IsInf(tc.SnapshotEvery, 0) {
		return nil, fmt.Errorf("hybridqos: telemetry snapshot cadence %g, want positive", tc.SnapshotEvery)
	}
	opts := telemetry.Options{SnapshotEvery: tc.SnapshotEvery}
	if exemplars > 0 {
		opts.Exemplars = exemplars
		opts.ExemplarRNG = rng.New(seed).Split("exemplars")
	}
	if hook := tc.OnSnapshot; hook != nil {
		opts.OnSnapshot = func(s *telemetry.Snapshot) {
			hook(s.T, telemetry.AppendProm(nil, s))
		}
	}
	return telemetry.New(opts)
}

// exemplarCount returns the configured exemplar reservoir size, 0 when
// span tracing or telemetry is off.
func (c Config) exemplarCount() int {
	if c.Spans == nil || c.Telemetry == nil {
		return 0
	}
	return c.Spans.Exemplars
}

// FaultsConfig parameterises the failure model: downlink loss, client
// retries and server-side admission shedding. Any of the three parts may be
// enabled independently.
type FaultsConfig struct {
	// LossProb is the mean downlink corruption probability in [0,1); 0
	// disables loss.
	LossProb float64
	// MeanBurst, when ≥ 1, makes corruption bursty: a Gilbert–Elliott chain
	// whose loss bursts average MeanBurst consecutive transmissions, with
	// stationary loss LossProb. 0 selects i.i.d. Bernoulli loss; any other
	// value below 1 is an error.
	MeanBurst float64
	// MaxRetries is the number of client re-requests allowed after corrupted
	// pull deliveries; 0 disables retries (a corrupted delivery fails
	// immediately).
	MaxRetries int
	// RetryBackoff is the backoff before the first re-request in broadcast
	// units (default 1 when retries are enabled).
	RetryBackoff float64
	// BackoffMultiplier grows the backoff per attempt (default 2).
	BackoffMultiplier float64
	// MaxBackoff, when positive, caps the un-jittered backoff.
	MaxBackoff float64
	// RetryJitter in [0,1] spreads each backoff uniformly over
	// [1−J/2, 1+J/2] times its nominal value.
	RetryJitter float64
	// ShedHigh, when positive, enables class-aware overload shedding: at
	// ShedHigh pending pull requests (queued plus awaiting retry) the server
	// refuses lowest-class requests, restoring admission at ShedLow
	// (hysteresis; ShedLow < ShedHigh). 0 disables shedding; a negative
	// mark is an error.
	ShedHigh int
	// ShedLow is the low-water mark (≥ 0).
	ShedLow int
	// MaxShedClasses bounds how many of the lowest classes can be shed at
	// once; 0 means only the bottom class. Class-A is never shed.
	MaxShedClasses int
}

// lossModel constructs the loss model, nil when loss is disabled.
func (f *FaultsConfig) lossModel() (faults.LossModel, error) {
	if f.LossProb == 0 && f.MeanBurst == 0 {
		return nil, nil
	}
	if f.MeanBurst != 0 {
		return faults.NewBurstLoss(f.LossProb, f.MeanBurst)
	}
	return faults.NewBernoulli(f.LossProb)
}

// retryPolicy lowers the retry fields, applying defaults.
func (f *FaultsConfig) retryPolicy() faults.RetryPolicy {
	if f.MaxRetries <= 0 {
		return faults.RetryPolicy{}
	}
	p := faults.RetryPolicy{
		MaxAttempts: f.MaxRetries,
		Base:        f.RetryBackoff,
		Multiplier:  f.BackoffMultiplier,
		Max:         f.MaxBackoff,
		Jitter:      f.RetryJitter,
	}
	if p.Base == 0 {
		p.Base = 1
	}
	if p.Multiplier == 0 {
		p.Multiplier = 2
	}
	return p
}

// ClientCacheConfig parameterises client-side caching.
type ClientCacheConfig struct {
	// NumClients is the cache population size.
	NumClients int
	// Capacity is each client's cache size in items.
	Capacity int
	// Policy is "lru", "lfu" or "pix" (empty = "pix", the broadcast-disk
	// policy).
	Policy string
}

// UplinkConfig parameterises the token-bucket request back-channel.
type UplinkConfig struct {
	// Rate is the sustained request rate the uplink admits per broadcast
	// unit.
	Rate float64
	// Burst is the burst allowance (≥ 1).
	Burst float64
}

// RotationConfig parameterises popularity drift (see Config.Rotation).
type RotationConfig struct {
	// Period is the rotation interval in broadcast units.
	Period float64
	// Shift is how many rank positions rotate per period.
	Shift int
}

// PaperConfig returns the paper's simulation setup (section 5.1): D = 100
// items with lengths 1..5 (mean 2), λ′ = 5, three classes with priorities
// 3:2:1 and Zipf(1) population split, α = 0.5, θ = 0.6, K = 40.
func PaperConfig() Config {
	return Config{
		NumItems:       100,
		Theta:          0.6,
		Lambda:         5,
		Cutoff:         40,
		Alpha:          0.5,
		ClassWeights:   []float64{3, 2, 1},
		PopulationSkew: 1.0,
		Horizon:        20000,
		WarmupFraction: 0.1,
		Replications:   3,
		Seed:           1,
	}
}

// build lowers the public Config to internal configuration.
func (c Config) build() (core.Config, error) {
	if c.Replications < 0 {
		return core.Config{}, fmt.Errorf("hybridqos: replication count %d negative", c.Replications)
	}
	cat, err := catalog.Generate(catalog.Config{
		D:             c.NumItems,
		Theta:         c.Theta,
		MinLen:        1,
		MaxLen:        5,
		LengthWeights: catalog.PaperLengthWeights(),
		Seed:          c.Seed,
	})
	if err != nil {
		return core.Config{}, err
	}
	cl, err := clients.New(clients.Config{
		Weights:        c.ClassWeights,
		PopulationSkew: c.PopulationSkew,
	})
	if err != nil {
		return core.Config{}, err
	}
	cfg := core.Config{
		Catalog:        cat,
		Classes:        cl,
		Lambda:         c.Lambda,
		Cutoff:         c.Cutoff,
		Alpha:          c.Alpha,
		Horizon:        c.Horizon,
		WarmupFraction: c.WarmupFraction,
		Seed:           c.Seed,
		// Result.P95Delay reads each class's delay samples.
		DelaySamples: &core.DelaySamples{Bound: c.DelayHistBound},
	}
	// Policy selection is by name only: the core engine resolves the names
	// through the policy registry, so externally registered policies work
	// here too. Unknown names surface as *policy.UnknownError from
	// cfg.Validate below.
	cfg.PullPolicyName = c.PullPolicy
	cfg.PushPolicyName = c.PushScheduler
	cfg.PushDisks = c.PushDisks
	if c.Bandwidth != nil {
		cfg.Bandwidth = &bandwidth.Config{
			Total:       c.Bandwidth.Total,
			Fractions:   c.Bandwidth.Fractions,
			DemandMean:  c.Bandwidth.DemandMean,
			AllowBorrow: c.Bandwidth.AllowBorrow,
		}
	}
	cfg.RequestTTL = c.RequestTTL
	if c.Faults != nil {
		if c.Faults.MaxRetries < 0 {
			return core.Config{}, fmt.Errorf("faults: retry count %d negative", c.Faults.MaxRetries)
		}
		cfg.Retry = c.Faults.retryPolicy()
		if c.Faults.ShedHigh != 0 {
			cfg.Shed = &faults.ShedConfig{
				High:           c.Faults.ShedHigh,
				Low:            c.Faults.ShedLow,
				MaxShedClasses: c.Faults.MaxShedClasses,
			}
		}
	}
	if c.Telemetry != nil {
		// One collector, a sink: sim hands it to the first run only
		// (replication 0, seed c.Seed); clusterConfig drops it.
		if cfg.Telemetry, err = c.Telemetry.newCollector(c.exemplarCount(), c.Seed); err != nil {
			return core.Config{}, err
		}
	}
	if c.Spans != nil {
		if c.Spans.Exemplars < 0 {
			return core.Config{}, fmt.Errorf("hybridqos: negative span exemplar count %d", c.Spans.Exemplars)
		}
		cfg.Spans = &core.SpanConfig{Rates: append([]float64(nil), c.Spans.Rates...)}
	}
	if c.ClientCache != nil {
		cachePol, err := cachePolicyByName(c.ClientCache.Policy)
		if err != nil {
			return core.Config{}, err
		}
		cfg.ClientCache = &core.CacheConfig{
			NumClients: c.ClientCache.NumClients,
			Capacity:   c.ClientCache.Capacity,
			Policy:     cachePol,
		}
	}
	if c.Rotation != nil {
		if cfg.Items, err = workload.NewRotatingPopularity(cat, c.Rotation.Period, c.Rotation.Shift); err != nil {
			return core.Config{}, err
		}
	}
	if c.Uplink != nil {
		if cfg.Uplink, err = uplink.NewTokenBucket(c.Uplink.Rate, c.Uplink.Burst); err != nil {
			return core.Config{}, err
		}
	}
	if c.Faults != nil {
		if cfg.Loss, err = c.Faults.lossModel(); err != nil {
			return core.Config{}, err
		}
	}
	if err := cfg.Validate(); err != nil {
		return core.Config{}, err
	}
	return cfg, nil
}

func cachePolicyByName(name string) (cache.PolicyKind, error) {
	switch name {
	case "", "pix":
		return cache.PIX, nil
	case "lru":
		return cache.LRU, nil
	case "lfu":
		return cache.LFU, nil
	default:
		return 0, fmt.Errorf("hybridqos: unknown cache policy %q", name)
	}
}

// ClassResult reports one service class's measured performance.
type ClassResult struct {
	// Class is the class label ("Class-A", ...).
	Class string
	// Weight is the class's priority weight.
	Weight float64
	// MeanDelay is the mean access time in broadcast units; DelayCI95 is
	// the half-width of its 95% confidence interval across replications
	// (NaN for a single replication).
	MeanDelay, DelayCI95 float64
	// P95Delay is the 95th-percentile access time, pooled over all served
	// requests across replications.
	P95Delay float64
	// Cost is the prioritised cost Weight·MeanDelay.
	Cost float64
	// DropRate is the fraction of requests lost to bandwidth blocking.
	DropRate float64
	// Served and Dropped are pooled request counts.
	Served, Dropped int64
	// Expired counts requests that missed their RequestTTL deadline.
	Expired int64
	// CacheHits counts requests served instantly from the client's cache.
	CacheHits int64
	// UplinkLost counts pull requests lost on the request back-channel.
	UplinkLost int64
	// Retries counts client re-requests after corrupted pull deliveries.
	Retries int64
	// Failed counts requests whose retry budget corruption exhausted.
	Failed int64
	// Shed counts requests refused by the overload admission controller.
	Shed int64
	// FailureRate is the mean per-replication fraction of completed requests
	// that ended in failure (drop, expiry, retry exhaustion or shedding).
	FailureRate float64
}

// Result reports one configuration's measured performance.
type Result struct {
	// Cutoff echoes K.
	Cutoff int
	// Alpha echoes α.
	Alpha float64
	// PerClass has one entry per class, Class-A first.
	PerClass []ClassResult
	// OverallDelay is the request-weighted mean access time; its CI is
	// across replications.
	OverallDelay, OverallDelayCI95 float64
	// TotalCost is Σ_c Weight_c·MeanDelay_c.
	TotalCost float64
	// PushBroadcasts, PullTransmissions and BlockedTransmissions are pooled
	// counts over all replications.
	PushBroadcasts, PullTransmissions, BlockedTransmissions int64
	// CorruptedPushes and CorruptedPulls count transmissions lost on the
	// lossy downlink — the gap between raw throughput and goodput.
	CorruptedPushes, CorruptedPulls int64
	// MeanQueueItems is the time-averaged number of distinct queued pull
	// items.
	MeanQueueItems float64
	// Replications is the number of runs aggregated.
	Replications int
}

// SetWorkers overrides the size of the shared deterministic work pool used
// by Simulate, OptimizeCutoff and the experiment sweeps, returning the
// previous override; n <= 0 restores automatic sizing (GOMAXPROCS−1, at
// least one). Results are bit-identical at any worker count, so this only
// trades wall-clock time against CPU use. The override is process-global.
func SetWorkers(n int) (prev int) { return workpool.SetWorkers(n) }

// Workers reports the effective work-pool size.
func Workers() int { return workpool.Workers() }

// Simulate runs the configured system (Replications independent runs in
// parallel) and aggregates the results.
func Simulate(c Config) (*Result, error) {
	cfg, err := c.build()
	if err != nil {
		return nil, err
	}
	reps := c.Replications
	if reps <= 0 {
		reps = 1
	}
	summary, err := sim.RunReplications(cfg, reps)
	if err != nil {
		return nil, err
	}
	return resultFromSummary(summary, c), nil
}

// resultFromSummary reports a replicated run: pooled counts and P95 from
// the pooled metrics, and the per-replication means (delay with its CI,
// cost, drop and failure rates) in place of the pooled ones.
func resultFromSummary(s *sim.Summary, c Config) *Result {
	p := s.Pooled
	res := &Result{
		Cutoff:               s.Config.Cutoff,
		Alpha:                c.Alpha,
		TotalCost:            s.TotalCost.Mean(),
		PushBroadcasts:       p.PushBroadcasts,
		PullTransmissions:    p.PullTransmissions,
		BlockedTransmissions: p.BlockedTransmissions,
		CorruptedPushes:      p.CorruptedPushes,
		CorruptedPulls:       p.CorruptedPulls,
		MeanQueueItems:       s.QueueItems.Mean(),
		Replications:         s.Replications,
	}
	res.OverallDelay, res.OverallDelayCI95 = s.OverallDelay.CI95()
	for i, cs := range s.PerClass {
		cr := classResult(p.PerClass[i])
		cr.MeanDelay, cr.DelayCI95 = cs.Delay.CI95()
		cr.Cost = cs.Cost.Mean()
		cr.DropRate = cs.DropRate.Mean()
		cr.FailureRate = cs.FailureRate.Mean()
		res.PerClass = append(res.PerClass, cr)
	}
	return res
}

// classResult reports one class's pooled metrics. DelayCI95 and
// FailureRate are replication statistics and stay zero.
func classResult(cm *core.ClassMetrics) ClassResult {
	return ClassResult{
		Class:      cm.Class.String(),
		Weight:     cm.Weight,
		MeanDelay:  cm.Delay.Mean(),
		P95Delay:   cm.DelayHist.Percentile(95),
		Cost:       cm.Cost(),
		DropRate:   cm.DropRate(),
		Served:     cm.Served,
		Dropped:    cm.Dropped,
		Expired:    cm.Expired,
		CacheHits:  cm.CacheHits,
		UplinkLost: cm.UplinkLost,
		Retries:    cm.Retries,
		Failed:     cm.Failed,
		Shed:       cm.Shed,
	}
}

// OptimizeCutoff sweeps K over [kMin, kMax] by step and returns the result
// minimising the objective: "delay" (mean access time) or "cost" (total
// prioritised cost, the paper's criterion).
func OptimizeCutoff(c Config, kMin, kMax, step int, objective string) (*Result, error) {
	if step <= 0 || kMin < 0 || kMax < kMin {
		return nil, fmt.Errorf("hybridqos: invalid sweep [%d,%d] step %d", kMin, kMax, step)
	}
	cfg, err := c.build()
	if err != nil {
		return nil, err
	}
	var optimal func([]sim.SweepPoint) (sim.SweepPoint, error)
	switch objective {
	case "delay":
		optimal = sim.OptimalByOverallDelay
	case "cost", "":
		optimal = sim.OptimalByTotalCost
	default:
		return nil, fmt.Errorf("hybridqos: unknown objective %q (want \"delay\" or \"cost\")", objective)
	}
	reps := c.Replications
	if reps <= 0 {
		reps = 1
	}
	ks := make([]int, 0, (kMax-kMin)/step+1)
	for k := kMin; k <= kMax; k += step {
		ks = append(ks, k)
	}
	points, err := sim.SweepCutoffs(cfg, ks, reps)
	if err != nil {
		return nil, err
	}
	best, err := optimal(points)
	if err != nil {
		return nil, err
	}
	return resultFromSummary(best.Summary, c), nil
}

// ClassPrediction is one class's analytic prediction.
type ClassPrediction struct {
	// Class is the class label.
	Class string
	// Delay is the predicted mean access time.
	Delay float64
	// Cost is the prioritised cost.
	Cost float64
}

// Prediction is the analytic model evaluated at one cutoff.
type Prediction struct {
	// Cutoff is K.
	Cutoff int
	// OverallDelay is the request-weighted predicted access time.
	OverallDelay float64
	// TotalCost is Σ_c q_c·delay_c.
	TotalCost float64
	// PerClass has one entry per class.
	PerClass []ClassPrediction
}

// buildModel lowers the public Config to the refined analytic model.
func (c Config) buildModel() (analytic.Model, error) {
	cfg, err := c.build()
	if err != nil {
		return analytic.Model{}, err
	}
	return analytic.Model{
		Catalog:     cfg.Catalog,
		Classes:     cfg.Classes,
		LambdaTotal: c.Lambda,
		Alpha:       c.Alpha,
		Variant:     analytic.Refined,
	}, nil
}

// Predict evaluates the refined item-level analytic model (the one validated
// against the simulator, Figure 7) at the configured cutoff.
func Predict(c Config) (*Prediction, error) {
	model, err := c.buildModel()
	if err != nil {
		return nil, err
	}
	res, err := model.AccessTime(c.Cutoff)
	if err != nil {
		return nil, err
	}
	return predictionFrom(res), nil
}

// PredictSweep evaluates the analytic model at every cutoff in [kMin, kMax].
func PredictSweep(c Config, kMin, kMax int) ([]Prediction, error) {
	model, err := c.buildModel()
	if err != nil {
		return nil, err
	}
	results, err := model.Sweep(kMin, kMax)
	if err != nil {
		return nil, err
	}
	out := make([]Prediction, len(results))
	for i, r := range results {
		out[i] = *predictionFrom(r)
	}
	return out, nil
}

// PredictOptimalCutoff returns the model's cost-minimising cutoff in
// [kMin, kMax] — the cheap way to pick K before committing simulation time.
func PredictOptimalCutoff(c Config, kMin, kMax int) (*Prediction, error) {
	model, err := c.buildModel()
	if err != nil {
		return nil, err
	}
	res, err := model.OptimalCutoff(kMin, kMax, analytic.ByTotalCost)
	if err != nil {
		return nil, err
	}
	return predictionFrom(res), nil
}

func predictionFrom(r analytic.Result) *Prediction {
	p := &Prediction{Cutoff: r.K, OverallDelay: r.Overall, TotalCost: r.TotalCost}
	for _, cd := range r.PerClass {
		p.PerClass = append(p.PerClass, ClassPrediction{
			Class: cd.Class.String(),
			Delay: cd.Wait,
			Cost:  cd.Cost,
		})
	}
	return p
}

// DeviationFromPrediction compares a simulation result with the analytic
// prediction at the same cutoff and returns the worst per-class relative
// delay deviation — the paper's Figure 7 agreement metric.
func DeviationFromPrediction(r *Result, p *Prediction) (float64, error) {
	if r == nil || p == nil {
		return 0, fmt.Errorf("hybridqos: nil result or prediction")
	}
	if len(r.PerClass) != len(p.PerClass) {
		return 0, fmt.Errorf("hybridqos: class count mismatch %d vs %d", len(r.PerClass), len(p.PerClass))
	}
	worst := 0.0
	for i := range r.PerClass {
		s := r.PerClass[i].MeanDelay
		if s <= 0 || math.IsNaN(s) {
			continue
		}
		if dev := math.Abs(p.PerClass[i].Delay-s) / s; dev > worst {
			worst = dev
		}
	}
	return worst, nil
}

// WriteTrace runs ONE simulation of the configuration (replication 0's
// seed) with JSON-lines event tracing enabled and writes the trace to path.
// It returns the number of events written. The trace records every arrival,
// transmission, blocking decision and served request; internal/trace
// documents the schema. When Config.Telemetry is set the trace additionally
// carries periodic snapshot events embedding the full metrics registry —
// trace.VerifySnapshots can later audit them against an event replay.
func WriteTrace(c Config, path string) (int64, error) {
	cfg, err := c.build()
	if err != nil {
		return 0, err
	}
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	j := trace.NewJSONL(f)
	cfg.Tracer = j
	if _, err := core.Run(cfg); err != nil {
		return 0, err
	}
	if err := j.Flush(); err != nil {
		return 0, err
	}
	return j.Events(), f.Close()
}

// SpanSummary reports one reconstructed span in facade terms.
type SpanSummary struct {
	// ID is the globally unique span ID.
	ID int64
	// Class is the service class index (0 = Class-A).
	Class int
	// Item is the requested catalog rank.
	Item int
	// Verdict is the admission verdict ("pull", "push", "cache") and
	// Outcome the terminal taxonomy ("served", "expired", ...; empty for a
	// span still open at the horizon).
	Verdict, Outcome string
	// Start, End and Delay bound the request lifetime in broadcast units.
	Start, End, Delay float64
	// Segments counts the reconstructed child segments, Retries the
	// re-requests after corrupted deliveries.
	Segments, Retries int
}

// WriteSpans runs ONE simulation of the configuration (replication 0's
// seed) with span tracing enabled, reconstructs and verifies every sampled
// request's span tree, and writes the requested exports: Perfetto/Chrome
// trace-event JSON to perfettoPath and compact OTLP-style JSON to otlpPath
// (either may be empty to skip that export). Config.Spans must be set; the
// returned summaries are sorted by span start time. Reconstruction is
// audited before writing — segments must tile each request lifetime
// exactly, with durations summing to the effective delay.
func WriteSpans(c Config, perfettoPath, otlpPath string) ([]SpanSummary, error) {
	if c.Spans == nil {
		return nil, fmt.Errorf("hybridqos: Config.Spans not set")
	}
	cfg, err := c.build()
	if err != nil {
		return nil, err
	}
	buf := &trace.Buffer{}
	cfg.Tracer = buf
	if _, err := core.Run(cfg); err != nil {
		return nil, err
	}
	spans, err := span.Build(buf.Events)
	if err != nil {
		return nil, err
	}
	if err := span.Verify(spans); err != nil {
		return nil, err
	}
	if perfettoPath != "" {
		if err := span.WriteFile(perfettoPath, spans, span.WritePerfetto); err != nil {
			return nil, err
		}
	}
	if otlpPath != "" {
		if err := span.WriteFile(otlpPath, spans, span.WriteOTLP); err != nil {
			return nil, err
		}
	}
	out := make([]SpanSummary, len(spans))
	for i, sp := range spans {
		out[i] = SpanSummary{
			ID: sp.ID, Class: int(sp.Class), Item: sp.Item,
			Verdict: sp.Verdict.String(), Outcome: sp.Outcome.String(),
			Start: sp.Start, End: sp.End, Delay: sp.Delay(),
			Segments: len(sp.Segments), Retries: sp.Retries,
		}
	}
	return out, nil
}

// IndexingPlan is one (1, m) air-indexing configuration's predicted
// client-side costs for push items (see internal/airindex).
type IndexingPlan struct {
	// M is the number of index segments per broadcast cycle.
	M int
	// AccessTime is the expected request-to-reception time (broadcast
	// units) under the index-first protocol.
	AccessTime float64
	// TuningTime is the expected active-listening (energy) time.
	TuningTime float64
	// DozeFraction is the fraction of the wait the receiver sleeps through.
	DozeFraction float64
}

// PlanIndexing returns the access-optimal (1, m) air-indexing plan for the
// configured push set: m* ≈ sqrt(Data/indexLen), the classic
// Imielinski–Viswanathan–Badrinath rule, evaluated on the actual catalog.
func PlanIndexing(c Config, indexLen float64) (*IndexingPlan, error) {
	cfg, err := c.build()
	if err != nil {
		return nil, err
	}
	m, metrics, err := airindex.OptimalM(airindex.Config{
		Catalog:  cfg.Catalog,
		Cutoff:   c.Cutoff,
		IndexLen: indexLen,
		M:        1,
	})
	if err != nil {
		return nil, err
	}
	return &IndexingPlan{
		M:            m,
		AccessTime:   metrics.AccessTime,
		TuningTime:   metrics.TuningTime,
		DozeFraction: metrics.DozeFraction,
	}, nil
}

// SweepIndexing evaluates every index count m in [1, mMax] (clamped to the
// push set size) for the configured push set.
func SweepIndexing(c Config, indexLen float64, mMax int) ([]IndexingPlan, error) {
	cfg, err := c.build()
	if err != nil {
		return nil, err
	}
	sweep, err := airindex.Sweep(airindex.Config{
		Catalog:  cfg.Catalog,
		Cutoff:   c.Cutoff,
		IndexLen: indexLen,
		M:        1,
	}, mMax)
	if err != nil {
		return nil, err
	}
	out := make([]IndexingPlan, len(sweep))
	for i, m := range sweep {
		out[i] = IndexingPlan{
			M:            i + 1,
			AccessTime:   m.AccessTime,
			TuningTime:   m.TuningTime,
			DozeFraction: m.DozeFraction,
		}
	}
	return out, nil
}

// ClosedLoopEpoch is one epoch of a closed-loop adaptive run.
type ClosedLoopEpoch struct {
	// Epoch is 0-based.
	Epoch int
	// Cutoff is the K used during the epoch.
	Cutoff int
	// OverallDelay and TotalCost are the epoch's measured metrics.
	OverallDelay, TotalCost float64
	// ThetaHat and LambdaHat are the post-epoch workload fits (0 when the
	// loop is frozen or the epoch was too sparse to fit).
	ThetaHat, LambdaHat float64
	// NextCutoff is the plan adopted for the next epoch.
	NextCutoff int
}

// RunClosedLoop executes the full §3 periodic re-optimisation loop against
// a drifting ground truth: each epoch the server runs with its current
// belief (item ranking, cutoff), the controller fits the observed workload,
// re-ranks the push set and re-plans K for the next epoch. The true
// popularity ranking rotates by shiftPerEpoch positions every epoch.
// adapt=false freezes the server after epoch 0 — the baseline an operator
// compares against.
//
// The loop models the paper's cell only: it uses NumItems, Theta, Lambda,
// Cutoff, Alpha, ClassWeights, PopulationSkew and Seed (the catalog and
// classes as built). Setting a field it would ignore — PullPolicy,
// PushScheduler, Bandwidth, Faults, Uplink, ClientCache, Rotation,
// RequestTTL, Telemetry, Spans or Cluster — is an error.
func RunClosedLoop(c Config, epochs int, epochLen float64, shiftPerEpoch int, adapt bool) ([]ClosedLoopEpoch, error) {
	if f := c.closedLoopIgnored(); f != "" {
		return nil, fmt.Errorf("hybridqos: RunClosedLoop does not model Config.%s", f)
	}
	cfg, err := c.build()
	if err != nil {
		return nil, err
	}
	lengths := make([]float64, cfg.Catalog.D())
	for i := range lengths {
		lengths[i] = cfg.Catalog.Length(i + 1)
	}
	results, err := adaptive.ClosedLoop(adaptive.ClosedLoopConfig{
		Lengths:       lengths,
		Classes:       cfg.Classes,
		Lambda:        c.Lambda,
		ThetaTrue:     c.Theta,
		ShiftPerEpoch: shiftPerEpoch,
		Alpha:         c.Alpha,
		InitialCutoff: c.Cutoff,
		Epochs:        epochs,
		EpochLen:      epochLen,
		Adapt:         adapt,
		Seed:          c.Seed,
	})
	if err != nil {
		return nil, err
	}
	out := make([]ClosedLoopEpoch, len(results))
	for i, r := range results {
		out[i] = ClosedLoopEpoch{
			Epoch:        r.Epoch,
			Cutoff:       r.Cutoff,
			OverallDelay: r.OverallDelay,
			TotalCost:    r.TotalCost,
			ThetaHat:     r.ThetaHat,
			LambdaHat:    r.LambdaHat,
			NextCutoff:   r.NextCutoff,
		}
	}
	return out, nil
}

// closedLoopIgnored names the first set field RunClosedLoop would ignore,
// "" when there is none.
func (c Config) closedLoopIgnored() string {
	for _, f := range []struct {
		name string
		set  bool
	}{
		{"PullPolicy", c.PullPolicy != ""},
		{"PushScheduler", c.PushScheduler != ""},
		{"Bandwidth", c.Bandwidth != nil},
		{"Faults", c.Faults != nil},
		{"Uplink", c.Uplink != nil},
		{"ClientCache", c.ClientCache != nil},
		{"Rotation", c.Rotation != nil},
		{"RequestTTL", c.RequestTTL != 0},
		{"Telemetry", c.Telemetry != nil},
		{"Spans", c.Spans != nil},
		{"Cluster", c.Cluster != nil},
	} {
		if f.set {
			return f.name
		}
	}
	return ""
}
