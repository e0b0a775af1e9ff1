package main

import (
	"fmt"
	"reflect"
	"runtime"
	"runtime/metrics"
	"time"

	"hybridqos/internal/bandwidth"
	"hybridqos/internal/catalog"
	"hybridqos/internal/clients"
	"hybridqos/internal/core"
	"hybridqos/internal/faults"
	"hybridqos/internal/span"
	"hybridqos/internal/telemetry"
	"hybridqos/internal/trace"
	"hybridqos/internal/workload"
)

// cellHorizon is one replication's simulated length in broadcast units:
// about 5000 arrivals at the paper's λ=5, a few milliseconds of wall time,
// so a run holds thousands of samples.
const cellHorizon = 1000

// A set-up builds the workload's inputs and runs one warm-up replication.
// A run repeats it every setupEvery through the measured loop (its time and
// allocations kept out of the loop's figures) and reports the median:
// taken back to back at start-up, a millisecond-scale set-up reads whatever
// the machine was doing in that instant, and per-run medians moved by 40%.
// The warm-up uses setupSeed whatever the run's seed: a bursty seed's
// warm-up would otherwise move setup_s by a third between runs.
const (
	setupEvery = 250 * time.Millisecond
	setupSeed  = 1
)

// peakReps is how many replications peak_rss_mb covers. The peak is a
// maximum over replications, and the lossy cell's footprint follows its
// largest trace: over a time budget, a faster machine (or a faster commit)
// would reach rarer, larger replications and read as a memory regression —
// over 20 s runs the lossy peak jumped from ~38 to ~52 MB in some runs and
// not others. Over a fixed count every run takes the same number of draws;
// 300 rather than 100 because the largest of 100 traces still moved the
// lossy peak by 0.08 (interquartile over median) between seeds, against
// 0.03 for the largest of 300 (10 s of a lossy run on a 2-vCPU VM).
const peakReps = 300

// cellWorkload is one simulated-cell workload: immutable inputs built once
// in setup, and a factory for each replication's configuration.
type cellWorkload struct {
	cat     *catalog.Catalog
	classes *clients.Classification
	// config builds a fresh replication configuration. Stateful models
	// (arrival chains, loss channels, collectors, trace buffers) are never
	// shared between runs. The buffer is the run's trace, nil untraced.
	config func(w *cellWorkload, seed uint64) (core.Config, *trace.Buffer, error)
	// audit runs traceinfo's offline span and snapshot audit on each trace.
	audit bool
	// ordered checks the paper's class ordering of mean delay (A < B < C).
	ordered bool
	// calibExp is how many times harder than the calibration kernel a
	// machine slowdown hits this workload, as an exponent on the kernel's
	// slowdown (calib.go).
	calibExp float64
}

// paperCell is the paper's single cell: Poisson λ=5 over the θ=0.6 catalog,
// K=40, γ(α=0.5) pull, flat round-robin push, no faults and no tracing.
func paperCell(w *cellWorkload, seed uint64) (core.Config, *trace.Buffer, error) {
	return core.Config{
		Catalog: w.cat, Classes: w.classes,
		Lambda: 5, Cutoff: 40, Alpha: 0.5,
		Horizon: cellHorizon, Seed: seed,
	}, nil, nil
}

// lossyCell overloads the same catalog with bursty MMPP arrivals over a
// Gilbert–Elliott burst-loss downlink with bounded exponential-backoff
// retries. Shed watermarks sit high enough that backoff timers pile up;
// bandwidth pools retry on block; EDF with a TTL makes pull selection
// time-dependent (a linear re-scan); telemetry snapshots, head-sampled spans
// and a trace buffer record everything for the offline audit.
func lossyCell(w *cellWorkload, seed uint64) (core.Config, *trace.Buffer, error) {
	arr, err := workload.Bursty(7, 3, 0.02)
	if err != nil {
		return core.Config{}, nil, err
	}
	loss, err := faults.NewBurstLoss(0.3, 5)
	if err != nil {
		return core.Config{}, nil, err
	}
	tele, err := telemetry.New(telemetry.Options{SnapshotEvery: 50})
	if err != nil {
		return core.Config{}, nil, err
	}
	bw := bandwidth.PaperConfig()
	buf := &trace.Buffer{}
	return core.Config{
		Catalog: w.cat, Classes: w.classes,
		Lambda: 7, Cutoff: 40, Alpha: 0.5,
		PullPolicyName: "edf", RequestTTL: 400,
		Arrivals:     arr,
		Loss:         loss,
		Retry:        faults.RetryPolicy{MaxAttempts: 4, Base: 20, Multiplier: 2, Jitter: 0.5},
		Shed:         &faults.ShedConfig{High: 900, Low: 700},
		Bandwidth:    &bw,
		RetryOnBlock: true,
		Telemetry:    tele,
		Spans:        &core.SpanConfig{Rates: []float64{0.2, 0.1, 0.05}},
		Tracer:       buf,
		Horizon:      cellHorizon, Seed: seed,
	}, buf, nil
}

func runPaperCell(o options) (*result, error) {
	return runCell(o, cellWorkload{config: paperCell, ordered: true, calibExp: 1.7})
}

func runLossyCell(o options) (*result, error) {
	return runCell(o, cellWorkload{config: lossyCell, audit: true, calibExp: 1.4})
}

// repSeed is the seed of replication i of a run seeded with seed.
func repSeed(seed uint64, i int) uint64 { return seed<<20 ^ uint64(i) }

// runCell sets the workload up, then measures it untraced or traced, on one
// P: a replication runs on one goroutine, and with a second P the runtime's
// own threads (the collector's background worker, spinning Ms) ran beside
// it on the VM's other vCPU — on a 2-vCPU VM that made the cells ~30%
// slower and their per-run medians spread by 0.2–0.35 between runs, against
// 0.04–0.07 on one P. The collector's work stays in the timing, interleaved
// on the same P.
func runCell(o options, spec cellWorkload) (*result, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	res := newResult()
	w, d, err := setUp(spec)
	if err != nil {
		return nil, err
	}
	if o.trace {
		return res, tracedCell(o, &w, res)
	}
	return res, untracedCell(o, &w, res, d)
}

// setUp builds the workload's immutable inputs (catalog, classification)
// and runs one warm-up replication, returning the workload and the seconds
// it took.
func setUp(spec cellWorkload) (cellWorkload, float64, error) {
	t0 := time.Now()
	w := spec
	var err error
	if w.cat, err = catalog.Generate(catalog.PaperConfig(0.6, 42)); err != nil {
		return w, 0, err
	}
	if w.classes, err = clients.New(clients.PaperConfig()); err != nil {
		return w, 0, err
	}
	cfg, _, err := w.config(&w, setupSeed)
	if err != nil {
		return w, 0, err
	}
	if _, err := core.Run(cfg); err != nil {
		return w, 0, err
	}
	return w, time.Since(t0).Seconds(), nil
}

// heapAllocs reads the cumulative heap allocation counters without
// stopping the world.
func heapAllocs() (objects, bytes uint64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// arrivals is a run's total arrival count (warm-up is 0, so every arrival
// is counted).
func arrivals(m *core.Metrics) int64 {
	var n int64
	for _, c := range m.PerClass {
		n += c.Arrivals
	}
	return n
}

// classDelays pools mean delay per class across replications.
type classDelays struct{ sum, n []float64 }

func (d *classDelays) add(m *core.Metrics) {
	if d.sum == nil {
		d.sum = make([]float64, len(m.PerClass))
		d.n = make([]float64, len(m.PerClass))
	}
	for i, c := range m.PerClass {
		d.sum[i] += c.Delay.Mean() * float64(c.Delay.N())
		d.n[i] += float64(c.Delay.N())
	}
}

// checkRun applies the per-replication output checks: per-class accounting
// (no request is counted twice; every served request carries a delay) and,
// with a trace, the offline span and snapshot audit.
func checkRun(res *result, m *core.Metrics) {
	for _, c := range m.PerClass {
		terminal := c.Served + c.Dropped + c.Expired + c.Failed + c.Shed + c.UplinkLost
		if terminal > c.Arrivals || c.Delay.N() != c.Served || c.Arrivals == 0 {
			res.fail("class %d accounting: %d arrivals, %d terminal, %d served, %d delays",
				c.Class, c.Arrivals, terminal, c.Served, c.Delay.N())
		}
	}
}

// auditTimes are the offline audit's three stages for one trace.
type auditTimes struct{ build, verify, snapshots time.Duration }

// audit is what `traceinfo -spans` runs over a recorded trace: span
// reconstruction, span verification and the telemetry snapshot replay.
func audit(events []trace.Event) (auditTimes, int, error) {
	var t auditTimes
	t0 := time.Now()
	spans, err := span.Build(events)
	t.build = time.Since(t0)
	if err != nil {
		return t, 0, fmt.Errorf("span.Build: %w", err)
	}
	t0 = time.Now()
	err = span.Verify(spans)
	t.verify = time.Since(t0)
	if err != nil {
		return t, len(spans), fmt.Errorf("span.Verify: %w", err)
	}
	t0 = time.Now()
	n, err := trace.VerifySnapshots(events)
	t.snapshots = time.Since(t0)
	if err != nil {
		return t, len(spans), fmt.Errorf("trace.VerifySnapshots: %w", err)
	}
	if n == 0 || len(spans) == 0 {
		return t, len(spans), fmt.Errorf("audit verified %d snapshots and %d spans", n, len(spans))
	}
	return t, len(spans), nil
}

// finalChecks runs the whole-run checks: a repeat of the first seed is
// bit-identical, and on the paper cell mean delay is ordered A < B < C.
func finalChecks(o options, w *cellWorkload, res *result, first *core.Metrics, delays *classDelays) error {
	cfg, _, err := w.config(w, repSeed(o.seed, 0))
	if err != nil {
		return err
	}
	res.attempted++
	again, err := core.Run(cfg)
	if err != nil {
		res.failed++
	} else if !reflect.DeepEqual(first, again) {
		res.fail("repeat of seed %d is not bit-identical", repSeed(o.seed, 0))
	}
	if w.ordered {
		res.attempted++
		var means []float64
		for i := range delays.sum {
			means = append(means, delays.sum[i]/delays.n[i])
		}
		for i := 1; i < len(means); i++ {
			if !(means[i-1] < means[i]) {
				res.fail("class mean delays %v not ordered A < B < C", means)
				break
			}
		}
		res.detail["class_mean_delay"] = means
	}
	return nil
}

// untracedCell measures replications back to back for the run length and
// reports the end-to-end metrics. Every time is scaled to the calm machine
// by the calibration kernel sampled after each replication (calib.go); the
// raw wall figures go to the detail line.
func untracedCell(o options, w *cellWorkload, res *result, setup float64) error {
	budget := time.Duration(o.seconds * float64(time.Second))
	var (
		wall     []float64 // per replication, core.Run wall ns
		reqs     []float64 // per replication, arrivals
		speed    []float64 // per replication, calibration kernel ns/op
		setups   = []float64{setup}
		setupAt  = []int{0} // replication index each set-up preceded
		objs, bs uint64     // heap allocations inside core.Run
		first    *core.Metrics
		delays   classDelays
		auditNs  time.Duration
		peak     float64 // MiB, after peakReps replications
		cal      = newCalibrator()
		start    = time.Now()
		last     = start
	)
	for i := 0; time.Since(start) < budget; i++ {
		if time.Since(last) >= setupEvery {
			_, d, err := setUp(*w)
			if err != nil {
				return err
			}
			setups, setupAt = append(setups, d), append(setupAt, len(wall))
			last = time.Now()
		}
		cfg, buf, err := w.config(w, repSeed(o.seed, i))
		if err != nil {
			return err
		}
		res.attempted++
		obj0, b0 := heapAllocs()
		t0 := time.Now()
		m, err := core.Run(cfg)
		dt := time.Since(t0)
		obj1, b1 := heapAllocs()
		if err != nil {
			res.failed++
			continue
		}
		objs, bs = objs+obj1-obj0, bs+b1-b0
		wall = append(wall, float64(dt))
		reqs = append(reqs, float64(arrivals(m)))
		checkRun(res, m)
		delays.add(m)
		if first == nil {
			first = m
		}
		// One collection after every replication, outside every timing, so
		// the collector's phase does not carry from one replication (or
		// audit) into the next. The paper cell allocates less per
		// replication than the minimum heap goal, so none of its
		// replications then contains a collection — without this, one in
		// ~15 carried a whole cycle and set the tail, which spread by 0.24
		// between runs. The lossy cell allocates several heap goals per
		// replication and keeps collecting inside its timing, but its
		// audit's peak (the whole trace and its spans live) no longer moves
		// the peak RSS by a fifth between runs. A collection before each
		// replication instead would shrink the heap goal it starts from and
		// add cycles to the lossy timing.
		runtime.GC()
		speed = append(speed, cal.sample())
		if w.audit {
			at, _, err := audit(buf.Events)
			if err != nil {
				res.fail("seed %d: %v", repSeed(o.seed, i), err)
			}
			auditNs += at.build + at.verify + at.snapshots
		}
		if i+1 == peakReps {
			peak = peakRSSMB()
		}
	}
	if len(wall) < 10 {
		return fmt.Errorf("only %d replications in %v; raise -seconds", len(wall), budget)
	}
	fs := speedFactors(speed, w.calibExp)
	var total, timed, rawTimed float64
	perReq := make([]float64, len(wall))
	for i := range wall {
		total += reqs[i]
		timed += wall[i] * fs[i]
		rawTimed += wall[i]
		perReq[i] = wall[i] * fs[i] / reqs[i]
	}
	scaled := make([]float64, len(setups))
	for j, d := range setups {
		scaled[j] = d * fs[min(setupAt[j], len(fs)-1)]
	}
	// Total over total, not the median replication: within a run the
	// per-replication cost still varies with the seed's burstiness, and the
	// mean weighs each arrival once.
	res.metrics["ns_per_req"] = timed / total
	// The 90th, not the 99th percentile: interference bursts shorter than a
	// replication escape the calibration, and over ten runs they moved the
	// 99th percentile by a fifth where the 90th moved by a twentieth.
	res.metrics["p90_ns_per_req"] = quantile(perReq, 0.9)
	res.metrics["allocs_per_req"] = float64(objs) / total
	res.metrics["bytes_per_req"] = float64(bs) / total
	res.metrics["setup_s"] = median(scaled)
	if peak == 0 { // a run shorter than peakReps replications
		peak = peakRSSMB()
	}
	res.metrics["peak_rss_mb"] = peak
	res.detail["wall_ns_per_req"] = rawTimed / total
	res.detail["wall_setup_s"] = median(setups)
	res.detail["calib_ns_per_op"] = median(speed)
	res.detail["calib_exp"] = w.calibExp
	res.detail["setup_samples"] = len(setups)
	res.detail["replications"] = len(wall)
	res.detail["arrivals"] = total
	if spread, err := relSpread(perReq); err == nil {
		res.detail["ns_per_req_sample_spread"] = spread
	}
	if w.audit {
		res.detail["audit_ns_per_req"] = float64(auditNs) / total
	}
	return finalChecks(o, w, res, first, &delays)
}
