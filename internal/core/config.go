package core

import (
	"fmt"
	"math"

	"hybridqos/internal/cache"
	"hybridqos/internal/catalog"
	"hybridqos/internal/clients"
	"hybridqos/internal/faults"
	"hybridqos/internal/policy"
	"hybridqos/internal/pullqueue"
	"hybridqos/internal/sched"
	"hybridqos/internal/stats"
	"hybridqos/internal/telemetry"
	"hybridqos/internal/trace"
	"hybridqos/internal/uplink"
	"hybridqos/internal/workload"

	"hybridqos/internal/bandwidth"
)

// Config parameterises one simulation run.
type Config struct {
	// Catalog is the item database (required).
	Catalog *catalog.Catalog
	// Classes is the service classification (required).
	Classes *clients.Classification
	// Lambda is the aggregate Poisson request rate λ′ (paper: 5).
	Lambda float64
	// Cutoff is K: items 1..K pushed, K+1..D pulled. 0 ≤ K ≤ D.
	Cutoff int
	// PullPolicyName names the pull policy in the internal/policy registry
	// ("gamma", "stretch", "priority", "fcfs", "edf", …). Empty selects the
	// default, the paper's γ(α) with Alpha. Ignored when PullPolicy is set.
	PullPolicyName string
	// PullPolicy, when non-nil, injects a pre-built pull policy directly,
	// bypassing the registry (programmatic extensions and tests).
	PullPolicy sched.PullPolicy
	// Alpha is Eq. 1's mixing fraction, consumed by the gamma policy.
	Alpha float64
	// PushPolicyName names the push scheduler in the internal/policy
	// registry ("roundrobin", "broadcast-disk", "square-root", "none").
	// Empty selects the default, the paper's flat round-robin. The special
	// name "none" disables pushing entirely: every request is routed through
	// the pull queue exactly as if Cutoff were 0. Ignored when PushScheduler
	// is set.
	PushPolicyName string
	// PushDisks is the broadcast-disk count for the broadcast-disk push
	// scheduler; 0 selects the policy package's default.
	PushDisks int
	// PushScheduler, when non-nil, injects a push-scheduler builder
	// directly, bypassing the registry.
	PushScheduler func(cat *catalog.Catalog, k int) (sched.PushScheduler, error)
	// Bandwidth, when non-nil, enables the per-class bandwidth pools and
	// blocking behaviour. Nil disables bandwidth constraints entirely (no
	// request is ever dropped).
	Bandwidth *bandwidth.Config
	// RetryOnBlock makes the server try the next-best pull entry after a
	// blocked one within the same slot (extension; the paper's pseudocode
	// gives up the slot).
	RetryOnBlock bool
	// Arrivals optionally replaces the Poisson(Lambda) arrival process
	// with another workload.ArrivalProcess (bursty MMPP, batch arrivals).
	// Lambda is ignored for gap generation when set, but must still be
	// valid (it feeds analytic comparisons). A process with state, such as
	// workload.Bursty's modulating chain, is copied in its initial state at
	// the start of every run (its Fresh method), so the config's own value
	// is never advanced and the config may run any number of times.
	Arrivals workload.ArrivalProcess
	// Items optionally replaces the catalog's static Zipf popularity with
	// another workload.ItemSampler (e.g. rotating hot set). Runs share it
	// as given, so it must keep no state between calls; the rotating hot
	// set is a function of the draw and the arrival time.
	Items workload.ItemSampler
	// RequestTTL, when positive, gives every request a deadline: requests
	// whose item completes transmission after arrival+TTL count as Expired
	// rather than Served (the client has given up listening; the server —
	// having no abandon signalling on the uplink — still transmits).
	RequestTTL float64
	// Tracer, when non-nil, receives a structured event stream (arrivals,
	// transmissions, blocks, served requests) for offline analysis.
	Tracer trace.Tracer
	// Telemetry, when non-nil, attaches the deterministic metrics collector:
	// the engine feeds it every traced event plus live gauges (queue depth,
	// bandwidth occupancy, pending retries) and, when the collector has a
	// snapshot cadence, emits periodic trace.KindSnapshot events carrying the
	// full registry state. Like Tracer it is a sink, not state the run
	// reads: it accumulates whatever runs it is given, so give each run
	// whose telemetry is read its own (sim.SweepConfigs hands a config's
	// sinks to its first run only). Telemetry is read-only with respect to
	// the simulation: a run with it attached is trajectory-identical to the
	// same run without it.
	Telemetry *telemetry.Collector
	// Uplink, when non-nil, models the limited request back-channel: pull
	// requests that fail uplink contention never reach the server and are
	// counted as UplinkLost (push requests need no uplink — clients simply
	// tune in to the broadcast). Like Arrivals, a channel with state (a
	// token bucket) is copied in its initial state at the start of every
	// run.
	Uplink uplink.Channel
	// ClientCache, when non-nil, gives every client a fixed-capacity item
	// cache (broadcast-disk style): a request hitting the requester's own
	// cache is served instantly (zero access time) and never reaches the
	// channel; on reception the requesting client caches the item.
	ClientCache *CacheConfig
	// Loss, when non-nil, makes the downlink lossy: every completed
	// transmission may be corrupted (no client decodes it). A corrupted push
	// broadcast leaves its waiters waiting for the item's next cycle; a
	// corrupted pull delivery sends the entry's requests through Retry. Like
	// Arrivals, a model with state (a Gilbert–Elliott chain) is copied in
	// its initial state at the start of every run. Nil keeps the paper's
	// error-free channel.
	Loss faults.LossModel
	// Retry governs client re-requests after corrupted pull deliveries:
	// bounded attempts with exponential backoff and jitter, re-contending on
	// the uplink and re-entering admission control. The zero value disables
	// retries (a corrupted delivery immediately counts as Failed).
	Retry faults.RetryPolicy
	// Shed, when non-nil, enables the class-aware overload admission
	// controller: when pending pull load (queued requests plus outstanding
	// retries) reaches the high-water mark the server refuses
	// lowest-priority-class requests, restoring admission at the low-water
	// mark (hysteresis).
	Shed *faults.ShedConfig
	// Horizon is the simulated duration in broadcast units.
	Horizon float64
	// WarmupFraction of the horizon is discarded from delay statistics
	// (requests ARRIVING before the warmup end are excluded).
	WarmupFraction float64
	// Seed drives all randomness in the run.
	Seed uint64
	// DelaySamples, when non-nil, keeps each class's raw access-time
	// samples in ClassMetrics.DelayHist, for a reader that asks for a
	// percentile; see DelaySamples for how. Nil keeps none: DelayHist stays
	// nil and only the counters and the Delay moments are tracked.
	DelaySamples *DelaySamples
	// Spans, when non-nil, enables per-request span provenance: head-based,
	// per-class deterministic sampling at arrival, with sampled requests
	// emitting span-* trace events at every lifecycle point (admission
	// verdict, enqueue score, scheduler decision, loss/retry, handoff,
	// terminal taxonomy) for reconstruction by internal/span. The sampling
	// stream is split from the run's root after every other stream, so a
	// nil Spans run is bit-identical to a build without the span layer, and
	// a spans-on run is trajectory-identical (extra events, same draws).
	Spans *SpanConfig
}

// SpanConfig parameterises span provenance sampling.
type SpanConfig struct {
	// Rates holds per-class sampling probabilities in [0,1]. Classes beyond
	// the slice (or all classes, when the slice is empty) default to 1 —
	// sample every request.
	Rates []float64
	// IDBase offsets every span ID the cell mints. Single-cell runs leave
	// it 0; cluster runs namespace each cell (cell index in the high bits)
	// so IDs stay globally unique after stream merging and cross-cell
	// parent links resolve unambiguously.
	IDBase int64
}

// DelaySamples says how a run keeps its raw delay samples.
type DelaySamples struct {
	// Bound, when positive, caps each class's histogram at that many
	// retained samples (a deterministic systematic reservoir; see
	// stats.Histogram.SetBound), so long-horizon runs keep constant memory.
	// Zero keeps every sample, for exact percentiles. Must be 0 or >= 2.
	Bound int
}

// histogram returns an empty per-class delay histogram kept as d says, or
// nil for a nil d.
func (d *DelaySamples) histogram() *stats.Histogram {
	if d == nil {
		return nil
	}
	h := new(stats.Histogram)
	if d.Bound > 0 {
		h.SetBound(d.Bound)
	}
	return h
}

// CacheConfig parameterises the client-side caches.
type CacheConfig struct {
	// NumClients is the cache population size.
	NumClients int
	// Capacity is each cache's item capacity.
	Capacity int
	// Policy selects the replacement policy (LRU, LFU, PIX).
	Policy cache.PolicyKind
}

// policyParams snapshots the configuration knobs the policy factories read.
func (c Config) policyParams() policy.Params {
	return policy.Params{
		Alpha:   c.Alpha,
		TTL:     c.RequestTTL,
		Disks:   c.PushDisks,
		Catalog: c.Catalog,
		Cutoff:  c.Cutoff,
	}
}

// buildPullPolicy resolves the run's pull policy: an injected PullPolicy
// wins; otherwise the named registry entry (empty name = the paper's γ(α)).
func (c Config) buildPullPolicy() (sched.PullPolicy, error) {
	if c.PullPolicy != nil {
		return c.PullPolicy, nil
	}
	return policy.NewPull(c.PullPolicyName, c.policyParams())
}

// buildPushScheduler resolves the run's push scheduler for a non-empty push
// set: an injected PushScheduler builder wins; otherwise the named registry
// entry (empty name = the paper's flat round-robin).
func (c Config) buildPushScheduler() (sched.PushScheduler, error) {
	if c.PushScheduler != nil {
		return c.PushScheduler(c.Catalog, c.Cutoff)
	}
	return policy.NewPush(c.PushPolicyName, c.policyParams())
}

// Validate reports whether the configuration is usable. Beyond structural
// checks it audits every invariant whose violation would otherwise panic
// deep inside internal/pullqueue or internal/catalog mid-run (zero-value
// catalogs/classifications, non-positive item lengths or class weights,
// α outside [0,1] — surfaced as pullqueue's typed *AlphaError — and unknown
// policy names), so a bad configuration fails here rather than after
// Server.Run has started.
func (c Config) Validate() error { return c.validate(true) }

// validate audits the configuration; generated selects the checks of the
// generated workload (rate, horizon, warm-up), which a serving Server
// (NewServing) has no use for.
func (c Config) validate(generated bool) error {
	if c.Catalog == nil {
		return fmt.Errorf("core: nil catalog")
	}
	if c.Catalog.D() == 0 {
		return fmt.Errorf("core: empty catalog")
	}
	for rank := 1; rank <= c.Catalog.D(); rank++ {
		if l := c.Catalog.Length(rank); l <= 0 || math.IsNaN(l) || math.IsInf(l, 0) {
			return fmt.Errorf("core: invalid length %g for item %d", l, rank)
		}
	}
	if c.Classes == nil {
		return fmt.Errorf("core: nil classification")
	}
	if c.Classes.NumClasses() == 0 {
		return fmt.Errorf("core: classification has no classes")
	}
	for i, w := range c.Classes.Weights() {
		if w <= 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return fmt.Errorf("core: invalid weight %g for class %d", w, i)
		}
	}
	if pol, ok := c.PullPolicy.(sched.ImportanceFactor); ok {
		if err := pullqueue.ValidateAlpha(pol.Alpha); err != nil {
			return fmt.Errorf("core: pull policy: %w", err)
		}
	}
	if generated && (c.Lambda <= 0 || math.IsNaN(c.Lambda) || math.IsInf(c.Lambda, 0)) {
		return fmt.Errorf("core: invalid lambda %g", c.Lambda)
	}
	if c.Cutoff < 0 || c.Cutoff > c.Catalog.D() {
		return fmt.Errorf("core: cutoff %d out of [0,%d]", c.Cutoff, c.Catalog.D())
	}
	if c.PullPolicy == nil {
		if err := pullqueue.ValidateAlpha(c.Alpha); err != nil {
			return fmt.Errorf("core: %w", err)
		}
	}
	if generated && (c.Horizon <= 0 || math.IsNaN(c.Horizon) || math.IsInf(c.Horizon, 0)) {
		return fmt.Errorf("core: invalid horizon %g", c.Horizon)
	}
	if generated && (c.WarmupFraction < 0 || c.WarmupFraction >= 1 || math.IsNaN(c.WarmupFraction)) {
		return fmt.Errorf("core: warmup fraction %g outside [0,1)", c.WarmupFraction)
	}
	if c.RequestTTL < 0 || math.IsNaN(c.RequestTTL) {
		return fmt.Errorf("core: invalid request TTL %g", c.RequestTTL)
	}
	if c.PushDisks < 0 {
		return fmt.Errorf("core: negative push disk count %d", c.PushDisks)
	}
	if d := c.DelaySamples; d != nil && (d.Bound < 0 || d.Bound == 1) {
		return fmt.Errorf("core: delay histogram bound %d (want 0 or >= 2)", d.Bound)
	}
	// Dry-resolve the policy names so an unknown name or a parameter the
	// factory rejects fails before the run starts.
	if c.PullPolicy == nil {
		if _, err := c.buildPullPolicy(); err != nil {
			return fmt.Errorf("core: %w", err)
		}
	}
	if c.PushScheduler == nil {
		if !policy.KnownPush(c.PushPolicyName) {
			if _, err := policy.NewPush(c.PushPolicyName, c.policyParams()); err != nil {
				return fmt.Errorf("core: %w", err)
			}
		}
		if c.Cutoff > 0 {
			if _, err := c.buildPushScheduler(); err != nil {
				return fmt.Errorf("core: %w", err)
			}
		}
	}
	if c.ClientCache != nil {
		if c.ClientCache.NumClients <= 0 || c.ClientCache.Capacity <= 0 {
			return fmt.Errorf("core: invalid client cache config %+v", *c.ClientCache)
		}
	}
	if c.Bandwidth != nil {
		if err := c.Bandwidth.Validate(); err != nil {
			return err
		}
		if len(c.Bandwidth.Fractions) != c.Classes.NumClasses() {
			return fmt.Errorf("core: %d bandwidth fractions for %d classes",
				len(c.Bandwidth.Fractions), c.Classes.NumClasses())
		}
	}
	if err := c.Retry.Validate(); err != nil {
		return err
	}
	if c.Shed != nil {
		if err := c.Shed.Validate(c.Classes.NumClasses()); err != nil {
			return err
		}
	}
	if c.Spans != nil {
		if len(c.Spans.Rates) > c.Classes.NumClasses() {
			return fmt.Errorf("core: %d span sampling rates for %d classes",
				len(c.Spans.Rates), c.Classes.NumClasses())
		}
		for i, r := range c.Spans.Rates {
			if r < 0 || r > 1 || math.IsNaN(r) {
				return fmt.Errorf("core: span sampling rate %g for class %d outside [0,1]", r, i)
			}
		}
		if c.Spans.IDBase < 0 {
			return fmt.Errorf("core: negative span ID base %d", c.Spans.IDBase)
		}
	}
	return nil
}
