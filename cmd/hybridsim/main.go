// Command hybridsim runs one configuration of the hybrid scheduler and
// prints per-class access times, prioritised costs and blocking statistics.
//
// Usage:
//
//	hybridsim [flags]
//
// Examples:
//
//	hybridsim -theta 0.6 -alpha 0.25 -cutoff 40
//	hybridsim -bandwidth 8 -fractions 0.5,0.3,0.2 -demand 1.5
//	hybridsim -policy rxw -push square-root
//	hybridsim -policy edf -ttl 300 -push none
//	hybridsim -push broadcast-disk -disks 4
//	hybridsim -loss 0.2 -gilbert 5 -retries 3 -backoff 1 -shed-high 260 -shed-low 200
//	hybridsim -telemetry-addr 127.0.0.1:9090 -horizon 200000 -reps 1
//	hybridsim -telemetry-every 100 -trace run.jsonl   # snapshots embedded in the trace
//	hybridsim -spans 1,0.5,0.1 -perfetto spans.json   # per-request span tracing
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"time"

	"hybridqos"
	"hybridqos/internal/httpserve"
	"hybridqos/internal/report"
)

// policyHelp derives the flag help from the live registry so externally
// registered policies and future built-ins show up without editing this file.
func policyHelp(kind string, names []string) string {
	return kind + ": " + strings.Join(names, "|")
}

func main() {
	var (
		d         = flag.Int("items", 100, "catalog size D")
		theta     = flag.Float64("theta", 0.6, "Zipf access skew θ")
		lambda    = flag.Float64("lambda", 5, "aggregate request rate λ'")
		cutoff    = flag.Int("cutoff", 40, "push/pull cutoff K")
		alpha     = flag.Float64("alpha", 0.5, "importance-factor mixing α")
		weights   = flag.String("weights", "3,2,1", "class priority weights, premium first")
		popSkew   = flag.Float64("popskew", 1.0, "client population Zipf skew")
		policy    = flag.String("policy", "", policyHelp("pull policy", hybridqos.PullPolicies()))
		push      = flag.String("push", "", policyHelp("push scheduler", hybridqos.PushSchedulers()))
		disks     = flag.Int("disks", 0, "speed tiers for -push broadcast-disk (0 = 3)")
		ttl       = flag.Float64("ttl", 0, "request deadline for -policy edf and expiry stats (0 disables)")
		horizon   = flag.Float64("horizon", 20000, "simulated duration (broadcast units)")
		warmup    = flag.Float64("warmup", 0.1, "warmup fraction discarded from stats")
		reps      = flag.Int("reps", 3, "independent replications")
		seed      = flag.Uint64("seed", 1, "base random seed")
		bw        = flag.Float64("bandwidth", 0, "total bandwidth units (0 disables blocking)")
		fracs     = flag.String("fractions", "", "per-class bandwidth fractions, e.g. 0.5,0.3,0.2")
		demand    = flag.Float64("demand", 1.5, "Poisson bandwidth demand mean per length unit")
		borrow    = flag.Bool("borrow", false, "allow borrowing from lower-priority pools")
		loss      = flag.Float64("loss", 0, "mean downlink corruption probability (0 disables)")
		gilbert   = flag.Float64("gilbert", 0, "mean loss-burst length ≥1 (Gilbert–Elliott; 0 = i.i.d. loss)")
		retries   = flag.Int("retries", 0, "client re-requests allowed after a corrupted pull delivery")
		backoff   = flag.Float64("backoff", 1, "base retry backoff (broadcast units, doubling per attempt)")
		jitter    = flag.Float64("jitter", 0, "retry backoff jitter in [0,1]")
		shedHigh  = flag.Int("shed-high", 0, "pending-load high-water mark for class shedding (0 disables)")
		shedLow   = flag.Int("shed-low", 0, "pending-load low-water mark restoring admission")
		cells     = flag.Int("cells", 0, "federate into this many broadcast cells (0 = single-cell mode)")
		mobility  = flag.Float64("mobility", 0, "client roam intensity per pending request per broadcast unit")
		routing   = flag.String("routing", "", policyHelp("cross-cell routing", hybridqos.RoutingPolicies()))
		overlap   = flag.Float64("overlap", 1, "fraction of catalog ranks replicated in every cell")
		handoffEv = flag.Float64("handoff-every", 0, "epoch length between cross-cell barriers (0 = horizon/100 when -cells > 1)")
		attach    = flag.Float64("attach-delay", 1, "inter-cell transit time (broadcast units)")
		hotCell   = flag.Int("hot-cell", 0, "index of the hot cell for -hot-factor")
		hotFactor = flag.Float64("hot-factor", 0, "request-rate multiplier for -hot-cell (0 disables)")
		telAddr   = flag.String("telemetry-addr", "", "serve live Prometheus /metrics on this address during the run (port 0 picks a free port)")
		telEvery  = flag.Float64("telemetry-every", 0, "telemetry snapshot cadence in broadcast units (0 with -telemetry-addr defaults to horizon/100)")
		predict   = flag.Bool("predict", false, "also print the analytic model's prediction")
		traceOut  = flag.String("trace", "", "write a JSONL event trace of one run to this file")
		confIn    = flag.String("config", "", "load configuration from a JSON file (model flags are ignored; telemetry, cluster and span flags apply on top)")
		confOut   = flag.String("saveconfig", "", "write the effective configuration to a JSON file")
		workers   = flag.Int("workers", 0, "replication worker count (0 = one per spare CPU)")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile of the simulation to this file")
		memProf   = flag.String("memprofile", "", "write a heap profile after the simulation to this file")
		spansIn   = flag.String("spans", "", "per-class span sampling rates (e.g. 1 or 1,0.5,0.1); enables span tracing")
		perfetto  = flag.String("perfetto", "", "write sampled spans as Perfetto/Chrome trace-event JSON (needs -spans)")
		otlp      = flag.String("otlp", "", "write sampled spans as compact OTLP-style JSON (needs -spans)")
		debugAddr = flag.String("debug-addr", "", "serve /debug/pprof/ profiling endpoints on this address during the run")
	)
	flag.Parse()

	w, err := parseFloats(*weights)
	if err != nil {
		fatal("parsing -weights: %v", err)
	}
	cfg := hybridqos.Config{
		NumItems:       *d,
		Theta:          *theta,
		Lambda:         *lambda,
		Cutoff:         *cutoff,
		Alpha:          *alpha,
		ClassWeights:   w,
		PopulationSkew: *popSkew,
		PullPolicy:     *policy,
		PushScheduler:  *push,
		PushDisks:      *disks,
		RequestTTL:     *ttl,
		Horizon:        *horizon,
		WarmupFraction: *warmup,
		Replications:   *reps,
		Seed:           *seed,
	}
	if *bw > 0 {
		fr, err := parseFloats(*fracs)
		if err != nil {
			fatal("parsing -fractions: %v", err)
		}
		cfg.Bandwidth = &hybridqos.BandwidthConfig{
			Total:       *bw,
			Fractions:   fr,
			DemandMean:  *demand,
			AllowBorrow: *borrow,
		}
	}

	if *loss > 0 || *gilbert > 0 || *retries > 0 || *shedHigh > 0 {
		cfg.Faults = &hybridqos.FaultsConfig{
			LossProb:     *loss,
			MeanBurst:    *gilbert,
			MaxRetries:   *retries,
			RetryBackoff: *backoff,
			RetryJitter:  *jitter,
			ShedHigh:     *shedHigh,
			ShedLow:      *shedLow,
		}
	}

	if *confIn != "" {
		loaded, err := hybridqos.LoadConfig(*confIn)
		if err != nil {
			fatal("loading -config: %v", err)
		}
		cfg = loaded
	}
	// Telemetry applies on top of a loaded -config too (so the flags stay
	// usable with canned configurations) and before -saveconfig (so the
	// snapshot cadence persists; the OnSnapshot hook never does).
	if !(*telEvery >= 0) { // negative or NaN
		fatal("telemetry: snapshot cadence %g, want positive", *telEvery)
	}
	if *telAddr != "" || *telEvery > 0 {
		every := *telEvery
		if every <= 0 {
			every = cfg.Horizon / 100
		}
		tc := &hybridqos.TelemetryConfig{SnapshotEvery: every}
		if *telAddr != "" {
			srv, stop, err := serveMetrics(*telAddr)
			if err != nil {
				fatal("telemetry: %v", err)
			}
			defer stop()
			tc.OnSnapshot = srv.update
		}
		cfg.Telemetry = tc
	}
	// Cluster mode applies on top of a loaded -config too, and before
	// -saveconfig so the federation persists in canned configurations.
	if *cells > 0 {
		every := *handoffEv
		if every <= 0 {
			every = cfg.Horizon / 100
		}
		cfg.Cluster = &hybridqos.ClusterOptions{
			Cells:          *cells,
			CatalogOverlap: *overlap,
			MobilityRate:   *mobility,
			AttachDelay:    *attach,
			Routing:        *routing,
			HandoffEvery:   every,
			HotCell:        *hotCell,
			HotFactor:      *hotFactor,
		}
	}
	// Span tracing applies on top of a loaded -config too, and before
	// -saveconfig so the sampling rates persist.
	if *spansIn != "" {
		rates, err := parseFloats(*spansIn)
		if err != nil {
			fatal("parsing -spans: %v", err)
		}
		cfg.Spans = &hybridqos.SpanTraceConfig{Rates: rates}
	}
	if *confOut != "" {
		if err := hybridqos.SaveConfig(cfg, *confOut); err != nil {
			fatal("writing -saveconfig: %v", err)
		}
	}

	if (*perfetto != "" || *otlp != "") && cfg.Spans == nil {
		fatal("-perfetto and -otlp need span tracing (-spans)")
	}

	if *debugAddr != "" {
		dbg, err := httpserve.StartDebug(*debugAddr)
		if err != nil {
			fatal("debug: %v", err)
		}
		defer dbg.Close()
		fmt.Fprintf(os.Stderr, "serving profiling on http://%s/debug/pprof/\n", dbg.Addr)
	}

	if *workers > 0 {
		hybridqos.SetWorkers(*workers)
	}
	if cfg.Cluster != nil {
		if *perfetto != "" || *otlp != "" {
			fatal("span export (-perfetto/-otlp) is single-cell; use -trace and traceinfo -spans for cluster runs")
		}
		stopCPU := startCPUProfile(*cpuProf)
		cres, err := hybridqos.SimulateCluster(cfg)
		stopCPU()
		if err != nil {
			fatal("simulate: %v", err)
		}
		writeMemProfile(*memProf)
		if *traceOut != "" {
			n, err := hybridqos.WriteClusterTrace(cfg, *traceOut)
			if err != nil {
				fatal("trace: %v", err)
			}
			fmt.Fprintf(os.Stderr, "wrote %d trace events to %s\n", n, *traceOut)
		}
		printClusterResult(cfg, cres)
		return
	}
	stopCPU := startCPUProfile(*cpuProf)
	res, err := hybridqos.Simulate(cfg)
	stopCPU()
	if err != nil {
		fatal("simulate: %v", err)
	}
	writeMemProfile(*memProf)

	if *traceOut != "" {
		n, err := hybridqos.WriteTrace(cfg, *traceOut)
		if err != nil {
			fatal("trace: %v", err)
		}
		fmt.Fprintf(os.Stderr, "wrote %d trace events to %s\n", n, *traceOut)
	}

	if *perfetto != "" || *otlp != "" {
		sums, err := hybridqos.WriteSpans(cfg, *perfetto, *otlp)
		if err != nil {
			fatal("spans: %v", err)
		}
		for _, path := range []string{*perfetto, *otlp} {
			if path != "" {
				fmt.Fprintf(os.Stderr, "wrote %d spans to %s\n", len(sums), path)
			}
		}
	}

	fmt.Printf("hybridqos %s — D=%d θ=%.2f λ'=%.1f K=%d α=%.2f horizon=%.0f reps=%d\n\n",
		hybridqos.Version, cfg.NumItems, cfg.Theta, cfg.Lambda, cfg.Cutoff, cfg.Alpha,
		cfg.Horizon, cfg.Replications)

	tbl := report.NewTable("Per-class results",
		"class", "weight", "mean delay", "±95% CI", "p95", "cost", "drop rate",
		"served", "dropped", "expired", "cache hits", "uplink lost",
		"retries", "failed", "shed", "failure rate")
	for _, c := range res.PerClass {
		tbl.AddRow(c.Class,
			report.FormatFloat(c.Weight, "%.0f"),
			report.FormatFloat(c.MeanDelay, "%.2f"),
			report.FormatFloat(c.DelayCI95, "%.2f"),
			report.FormatFloat(c.P95Delay, "%.2f"),
			report.FormatFloat(c.Cost, "%.2f"),
			report.FormatFloat(c.DropRate, "%.4f"),
			strconv.FormatInt(c.Served, 10),
			strconv.FormatInt(c.Dropped, 10),
			strconv.FormatInt(c.Expired, 10),
			strconv.FormatInt(c.CacheHits, 10),
			strconv.FormatInt(c.UplinkLost, 10),
			strconv.FormatInt(c.Retries, 10),
			strconv.FormatInt(c.Failed, 10),
			strconv.FormatInt(c.Shed, 10),
			report.FormatFloat(c.FailureRate, "%.4f"))
	}
	fmt.Println(tbl.String())

	fmt.Printf("overall delay: %.2f ± %.2f broadcast units\n", res.OverallDelay, res.OverallDelayCI95)
	fmt.Printf("total prioritised cost: %.2f\n", res.TotalCost)
	fmt.Printf("push broadcasts: %d, pull transmissions: %d, blocked: %d\n",
		res.PushBroadcasts, res.PullTransmissions, res.BlockedTransmissions)
	if cfg.Faults != nil {
		fmt.Printf("corrupted: %d push, %d pull (goodput %d of %d transmissions)\n",
			res.CorruptedPushes, res.CorruptedPulls,
			res.PushBroadcasts+res.PullTransmissions-res.CorruptedPushes-res.CorruptedPulls,
			res.PushBroadcasts+res.PullTransmissions)
	}
	fmt.Printf("mean distinct items queued: %.2f\n", res.MeanQueueItems)

	if *predict {
		p, err := hybridqos.Predict(cfg)
		if err != nil {
			fatal("predict: %v", err)
		}
		fmt.Printf("\nAnalytic prediction (refined model): overall %.2f, cost %.2f\n",
			p.OverallDelay, p.TotalCost)
		for _, c := range p.PerClass {
			fmt.Printf("  %s: delay %.2f, cost %.2f\n", c.Class, c.Delay, c.Cost)
		}
		dev, err := hybridqos.DeviationFromPrediction(res, p)
		if err == nil {
			fmt.Printf("worst per-class deviation from simulation: %.1f%%\n", dev*100)
		}
	}
}

// printClusterResult renders a cluster run: pooled per-class QoS, then the
// per-cell breakdown with the roaming traffic.
func printClusterResult(cfg hybridqos.Config, res *hybridqos.ClusterResult) {
	o := cfg.Cluster
	fmt.Printf("hybridqos %s — cluster of %d cells, D=%d (%d shared), θ=%.2f λ'=%.1f K=%d α=%.2f\n",
		hybridqos.Version, res.Cells, cfg.NumItems, res.SharedRanks, cfg.Theta, cfg.Lambda, cfg.Cutoff, cfg.Alpha)
	fmt.Printf("mobility rate %.3g, attach delay %.3g, routing %q, barrier every %.4g units\n\n",
		o.MobilityRate, o.AttachDelay, o.Routing, o.HandoffEvery)

	tbl := report.NewTable("Per-class results (pooled across cells)",
		"class", "weight", "mean delay", "p95", "cost", "served", "dropped",
		"expired", "shed")
	for _, c := range res.PerClass {
		tbl.AddRow(c.Class,
			report.FormatFloat(c.Weight, "%.0f"),
			report.FormatFloat(c.MeanDelay, "%.2f"),
			report.FormatFloat(c.P95Delay, "%.2f"),
			report.FormatFloat(c.Cost, "%.2f"),
			strconv.FormatInt(c.Served, 10),
			strconv.FormatInt(c.Dropped, 10),
			strconv.FormatInt(c.Expired, 10),
			strconv.FormatInt(c.Shed, 10))
	}
	fmt.Println(tbl.String())

	cells := report.NewTable("Per-cell breakdown",
		"cell", "overall delay", "served", "handoffs in", "handoffs out",
		"refused", "final load", "saturated at")
	for _, pc := range res.PerCell {
		sat := "-"
		if pc.Saturated {
			sat = fmt.Sprintf("%.0f", pc.SaturatedAt)
		}
		cells.AddRow(strconv.Itoa(pc.Cell),
			report.FormatFloat(pc.OverallDelay, "%.2f"),
			strconv.FormatInt(pc.Served, 10),
			strconv.FormatInt(pc.HandoffsIn, 10),
			strconv.FormatInt(pc.HandoffsOut, 10),
			strconv.FormatInt(pc.HandoffRefusals, 10),
			strconv.Itoa(pc.FinalLoad),
			sat)
	}
	fmt.Println(cells.String())

	fmt.Printf("overall delay: %.2f broadcast units, total prioritised cost: %.2f\n",
		res.OverallDelay, res.TotalCost)
	fmt.Printf("handoffs accepted: %d, refused: %d, saturated cells: %d of %d\n",
		res.Handoffs, res.HandoffRefusals, res.SaturatedCells, res.Cells)
}

// metricsServer holds the latest telemetry snapshot rendered in Prometheus
// text format and serves it over HTTP. All wall-clock and network machinery
// lives here in the command layer; the simulation behind it stays
// deterministic — the hook only hands over pre-rendered bytes.
type metricsServer struct {
	mu   sync.Mutex
	body []byte
}

// update is the TelemetryConfig.OnSnapshot hook: it replaces the served
// exposition with the latest snapshot's.
func (m *metricsServer) update(_ float64, prom []byte) {
	m.mu.Lock()
	m.body = append(m.body[:0], prom...)
	m.mu.Unlock()
}

func (m *metricsServer) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	m.mu.Lock()
	body := append([]byte(nil), m.body...)
	m.mu.Unlock()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if len(body) == 0 {
		fmt.Fprintln(w, "# waiting for first snapshot")
		return
	}
	w.Write(body)
}

// serveMetrics binds addr and serves /metrics in the background on a
// managed server (the same internal/httpserve lifecycle cmd/qosd uses). The
// resolved address is announced on stderr so scripts can scrape a port-0
// listener. The returned stop function shuts the listener down cleanly and
// reports any accept-loop error that would otherwise vanish.
func serveMetrics(addr string) (*metricsServer, func(), error) {
	srv := &metricsServer{}
	mux := http.NewServeMux()
	mux.Handle("/metrics", srv)
	hs, err := httpserve.Start(addr, mux)
	if err != nil {
		return nil, nil, err
	}
	fmt.Fprintf(os.Stderr, "serving /metrics on http://%s/metrics\n", hs.Addr)
	stop := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "hybridsim: metrics listener: %v\n", err)
		}
	}
	return srv, stop, nil
}

func parseFloats(s string) ([]float64, error) {
	if strings.TrimSpace(s) == "" {
		return nil, fmt.Errorf("empty list")
	}
	parts := strings.Split(s, ",")
	out := make([]float64, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// startCPUProfile begins CPU profiling to path ("" disables) and returns the
// stop function. Called explicitly rather than deferred because fatal exits
// with os.Exit, which would skip a deferred stop.
func startCPUProfile(path string) func() {
	if path == "" {
		return func() {}
	}
	f, err := os.Create(path)
	if err != nil {
		fatal("cpuprofile: %v", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		fatal("cpuprofile: %v", err)
	}
	return func() {
		pprof.StopCPUProfile()
		f.Close()
	}
}

// writeMemProfile writes a post-GC heap profile to path ("" disables).
func writeMemProfile(path string) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fatal("memprofile: %v", err)
	}
	defer f.Close()
	runtime.GC() // materialise final heap state
	if err := pprof.WriteHeapProfile(f); err != nil {
		fatal("memprofile: %v", err)
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "hybridsim: "+format+"\n", args...)
	os.Exit(1)
}
