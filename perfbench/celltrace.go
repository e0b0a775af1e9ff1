package main

import (
	"fmt"
	"reflect"
	"runtime"
	"runtime/debug"
	"time"

	"hybridqos/internal/core"
	"hybridqos/internal/policy"
	"hybridqos/internal/rng"
	"hybridqos/internal/trace"
	"hybridqos/internal/workload"
)

// tracedCell interleaves untraced and instrumented replications of the same
// seeds for most of the run (each pair must produce identical Metrics), then
// captures one replication's trace and replays its inputs into each layer
// in isolation. It reports the per-layer metrics, the tracing overhead and
// the reconciliation of in-situ against isolated costs.
//
// It runs with the collector off, collecting before each pair and each
// replay pass instead: on one P, collector work otherwise lands inside
// whichever wrapper or replay happens to be timing — a 15 ns loss-model call
// read 100 ns in situ in some runs, and a trace replay paid collections the
// recording beside it did not.
func tracedCell(o options, w *cellWorkload, res *result) error {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	budget := time.Duration(0.7 * o.seconds * float64(time.Second))
	var (
		layers        cellLayers
		pairs         int
		plainNs       time.Duration // Σ untraced core.Run wall time
		tracedNs      time.Duration // Σ instrumented core.Run wall time
		total         int64
		retries, shed int64
		tx, corrupt   int64
		events, spans int64
		audits        auditTimes
		sawTracer     bool
		start         = time.Now()
	)
	for i := 0; time.Since(start) < budget; i++ {
		seed := repSeed(o.seed, i)
		plainCfg, _, err := w.config(w, seed)
		if err != nil {
			return err
		}
		res.attempted += 2
		runtime.GC()
		t0 := time.Now()
		want, err := core.Run(plainCfg)
		dPlain := time.Since(t0)
		if err != nil {
			res.failed++
			continue
		}
		cfg, buf, err := w.config(w, seed)
		if err != nil {
			return err
		}
		if cfg, err = instrument(cfg, &layers); err != nil {
			return err
		}
		t0 = time.Now()
		got, err := core.Run(cfg)
		dTraced := time.Since(t0)
		if err != nil {
			res.failed++
			continue
		}
		if !reflect.DeepEqual(want, got) {
			res.fail("seed %d: traced run's Metrics differ from the untraced run's", seed)
		}
		checkRun(res, got)
		n := arrivals(got)
		total += n
		pairs++
		plainNs += dPlain
		tracedNs += dTraced
		for _, c := range got.PerClass {
			retries += c.Retries
			shed += c.Shed
		}
		tx += got.PushBroadcasts + got.PullTransmissions
		corrupt += got.CorruptedPushes + got.CorruptedPulls
		if buf != nil {
			sawTracer = true
			events += int64(len(buf.Events))
		}
		if w.audit {
			at, ns, err := audit(buf.Events)
			if err != nil {
				res.fail("seed %d: %v", seed, err)
			}
			audits.build += at.build
			audits.verify += at.verify
			audits.snapshots += at.snapshots
			spans += int64(ns)
		}
	}
	if pairs < 10 {
		return fmt.Errorf("only %d traced replications; raise -seconds", pairs)
	}
	perReq := func(n int64) float64 { return float64(n) / float64(total) }
	// Total over total, as ns_per_req is reported.
	untracedNs, tracedPerReq := perReq(int64(plainNs)), perReq(int64(tracedNs))
	m := res.metrics
	m["trace.overhead_frac"] = tracedPerReq/untracedNs - 1
	m["pull.score_calls_per_req"] = perReq(layers.score.calls)
	m["pull.score_ns"] = layers.score.perCall()
	m["push.next_ns"] = layers.push.perCall()
	m["workload.arrival_ns"] = layers.arrival.perCall()
	m["workload.item_ns"] = layers.item.perCall()
	m["faults.loss_ns"] = layers.loss.perCall()
	m["trace.sink_ns"] = layers.sink.perCall()
	m["faults.retries_per_req"] = perReq(retries)
	m["faults.shed_frac"] = perReq(shed)
	if tx > 0 {
		m["faults.goodput_frac"] = 1 - float64(corrupt)/float64(tx)
	}
	if sawTracer {
		m["trace.events_per_req"] = perReq(events)
	}
	if w.audit && events > 0 && spans > 0 {
		m["span.build_ns_per_event"] = float64(audits.build) / float64(events)
		m["span.verify_ns_per_span"] = float64(audits.verify) / float64(spans)
		m["trace.verify_snapshots_ns_per_event"] = float64(audits.snapshots) / float64(events)
		m["span.audit_ns_per_req"] = float64(audits.build+audits.verify+audits.snapshots) / float64(total)
	}
	res.detail["replications"] = pairs
	res.detail["untraced_ns_per_req"] = untracedNs
	res.detail["traced_ns_per_req"] = tracedPerReq

	iso, replays, err := isolateCell(o, w, res, sawTracer)
	if err != nil {
		return err
	}
	// In-situ against isolated, for every layer timed both ways.
	slack := readSpread(append(replays, &layers.arrival, &layers.item, &layers.push, &layers.loss, &layers.sink)...)
	pair := func(name string, sw *stopwatch) layerCost {
		return layerCost{name: name, calls: sw.calls, insituNs: sw.perCall(), isoNs: iso[name], slackNs: slack}
	}
	costs := []layerCost{
		pair("workload.arrival", &layers.arrival),
		pair("workload.item", &layers.item),
		pair("push.next", &layers.push),
		pair("faults.loss", &layers.loss),
		pair("trace.sink", &layers.sink),
	}
	worst, table := reconcile(res, costs)
	m["reconcile.max_dev_frac"] = worst
	res.detail["reconciliation"] = table

	// Attribution inside the traced run, whose wrappers were timed in situ:
	// its cost per request minus the whole time spent inside each wrapper
	// (clock reads included, so the wrappers' own cost cancels) and, for the
	// layers the engine calls internally, the isolated cost times the count
	// per request. Score calls run inside pull extraction, whose isolated
	// cost already includes them, so only their wrapper's clock reads are
	// taken out. Against the untraced total with isolated costs throughout,
	// the parts summed past the whole on the lossy cell: a replay into fresh
	// trace buffers pays more growth than the run's own recording.
	wrapped := func(sw stopwatch) float64 { return sw.inWrapper() / float64(total) }
	parts := map[string]float64{
		"workload.arrival": wrapped(layers.arrival),
		"workload.item":    wrapped(layers.item),
		"push.next":        wrapped(layers.push),
		"faults.loss":      wrapped(layers.loss),
		"trace.sink":       wrapped(layers.sink),
		"pull.score_reads": layers.score.reads() / float64(total),
		"telemetry.apply":  iso["telemetry.apply"] * m["trace.events_per_req"],
		"pull.add":         m["pull.add_ns"] * iso["pull.adds_per_req"],
		"pull.extract":     m["pull.extract_ns"] * iso["pull.extracts_per_req"],
		"event":            m["event.ns_per_op"] * m["event.ops_per_req"],
	}
	self, share, err := attribute(tracedPerReq, parts)
	if err != nil {
		return err
	}
	m["core.self_ns_per_req"] = self
	m["core.unattributed_frac"] = share
	res.detail["attribution_ns_per_req"] = parts
	return nil
}

// isolateCell captures one replication's trace (a Tracer changes no draw,
// so its Metrics must equal the untraced run's) and replays its inputs into
// the pull queue, the event simulator and trace.Apply, and drives fresh
// copies of the arrival, item, loss and push models as often as the run
// did. It fills the isolated per-layer metrics and returns every isolated
// per-call cost and the stopwatches that timed the per-call replays.
func isolateCell(o options, w *cellWorkload, res *result, workloadTraced bool) (map[string]float64, []*stopwatch, error) {
	seed := repSeed(o.seed, 0)
	cfg, _, err := w.config(w, seed)
	if err != nil {
		return nil, nil, err
	}
	want, err := core.Run(cfg)
	if err != nil {
		return nil, nil, err
	}
	cfg, buf, err := w.config(w, seed)
	if err != nil {
		return nil, nil, err
	}
	if buf == nil {
		buf = &trace.Buffer{}
		cfg.Tracer = buf
	}
	res.attempted++
	got, err := core.Run(cfg)
	if err != nil {
		return nil, nil, err
	}
	if !reflect.DeepEqual(want, got) {
		res.fail("seed %d: capturing the trace changed the run's Metrics", seed)
	}
	evs := buf.Events
	n := float64(arrivals(got))
	iso := map[string]float64{}
	m := res.metrics

	// Pull queue: the run's own adds and extractions, same policy.
	params := policy.Params{Alpha: cfg.Alpha, TTL: cfg.RequestTTL, Catalog: cfg.Catalog, Cutoff: cfg.Cutoff}
	pol, err := policy.NewPull(cfg.PullPolicyName, params)
	if err != nil {
		return nil, nil, err
	}
	ops := pullOps(evs, w.classes, cfg.Cutoff)
	var adds int
	for _, op := range ops {
		if op.add {
			adds++
		}
	}
	if m["pull.add_ns"], m["pull.extract_ns"], err = pullReplay(ops, cfg.Catalog, pol); err != nil {
		return nil, nil, err
	}
	iso["pull.adds_per_req"] = float64(adds) / n
	iso["pull.extracts_per_req"] = float64(len(ops)-adds) / n

	// Event layer: fired events counted from trace kinds; the gap mix and
	// the mean pending-set size (arrival chain, transmission, snapshot
	// chain, outstanding retries by Little's law) from the same trace.
	var fired, pullStarts int
	var backoff float64
	var gaps []float64
	lastArrival := -1.0
	backoffRng := rng.New(seed).Split("replay-backoff")
	useful := map[float64]bool{} // serial downlink: one completion per instant
	for _, e := range evs {
		switch e.Kind {
		case trace.KindArrival:
			if e.T != lastArrival {
				fired++
				if lastArrival >= 0 {
					gaps = append(gaps, e.T-lastArrival)
				}
				lastArrival = e.T
			}
		case trace.KindPushStart, trace.KindPullStart:
			fired++
			gaps = append(gaps, cfg.Catalog.Length(e.Item))
			if e.Kind == trace.KindPullStart {
				pullStarts++
			}
		case trace.KindRetry:
			fired++
			b := cfg.Retry.Backoff(e.Attempt-1, backoffRng)
			backoff += b
			gaps = append(gaps, b)
		case trace.KindSnapshot:
			fired++
			gaps = append(gaps, cfg.Telemetry.SnapshotEvery())
		case trace.KindServed:
			if !e.Push {
				useful[e.T] = true
			}
		}
	}
	pending := 2 + backoff/cfg.Horizon
	if cfg.Telemetry != nil {
		pending++
	}
	m["event.ops_per_req"] = float64(fired) / n
	m["event.pending_mean"] = pending
	m["event.ns_per_op"] = holdReplay(int(pending+0.5), gaps)
	if pullStarts > 0 {
		m["pull.useful_frac"] = float64(len(useful)) / float64(pullStarts)
	}

	// Trace sink and telemetry, where the workload itself records them.
	if workloadTraced {
		iso["trace.sink"] = sinkReplay(evs)
		if cfg.Telemetry != nil {
			if iso["telemetry.apply"], err = applyReplay(evs); err != nil {
				return nil, nil, err
			}
			m["telemetry.apply_ns"] = iso["telemetry.apply"]
		}
	}

	// Fresh copies of the stateful models, driven as often as the run did.
	fresh, _, err := w.config(w, seed)
	if err != nil {
		return nil, nil, err
	}
	arr := fresh.Arrivals
	if arr == nil {
		if arr, err = workload.NewPoisson(fresh.Lambda); err != nil {
			return nil, nil, err
		}
	}
	r := rng.New(seed).Split("replay")
	calls := int(n)
	var replays []*stopwatch
	timeCalls := func(name string, call func()) {
		sw := coldReplay(calls, call)
		iso[name] = sw.perCall()
		replays = append(replays, sw)
	}
	timeCalls("workload.arrival", func() { arr.Next(r) })
	items := workload.StaticPopularity{Catalog: fresh.Catalog}
	timeCalls("workload.item", func() { items.SampleItem(r, 0) })
	push, err := policy.NewPush(fresh.PushPolicyName, params)
	if err != nil {
		return nil, nil, err
	}
	timeCalls("push.next", func() { push.Next() })
	if loss := fresh.Loss; loss != nil {
		timeCalls("faults.loss", func() { loss.Corrupted(0, r) })
	}
	return iso, replays, nil
}
