package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"hybridqos/internal/admission"
	"hybridqos/internal/clock"
	"hybridqos/internal/qosd"
)

// loopProbe wraps the daemon's clock, exec and HTTP handler for the traced
// qosd run. Handler-side state (fire lag, durations, waits) is only touched
// on the clock loop goroutine and read after the loop has stopped; the
// middleware's samples are guarded by mu.
type loopProbe struct {
	inner *clock.Wall

	pending, pendingMax atomic.Int64

	lag, complete, submitWait []float64 // ns; loop goroutine only
	busy                      time.Duration

	mu        sync.Mutex
	handler   []float64 // ns: /request server time minus engine delay
	scrape    []float64 // ns: /metrics server time
	responses []qosd.Response
}

var _ clock.Clock = (*loopProbe)(nil)

func (p *loopProbe) Now() float64 { return p.inner.Now() }

// At forwards to the wall clock, timing the handler: fire time minus its
// scheduled instant is the loop's lag, its run time is completion work.
func (p *loopProbe) At(t float64, h func()) clock.Token {
	if n := p.pending.Add(1); n > p.pendingMax.Load() {
		p.pendingMax.Store(n)
	}
	return p.inner.At(t, func() {
		p.pending.Add(-1)
		start := time.Now()
		lag := (p.inner.Now() - t) * float64(qosdUnit)
		h()
		d := time.Since(start)
		p.lag = append(p.lag, lag)
		p.complete = append(p.complete, float64(d))
		p.busy += d
	})
}

func (p *loopProbe) After(delay float64, h func()) clock.Token {
	return p.At(p.inner.Now()+delay, h)
}

func (p *loopProbe) Cancel(tok clock.Token) bool {
	ok := p.inner.Cancel(tok)
	if ok {
		p.pending.Add(-1)
	}
	return ok
}

// exec forwards to Wall.Submit, timing the wait for the loop and the run.
func (p *loopProbe) exec(f func()) {
	submitted := time.Now()
	p.inner.Submit(func() {
		start := time.Now()
		p.submitWait = append(p.submitWait, float64(start.Sub(submitted)))
		f()
		p.busy += time.Since(start)
	})
}

// recorder keeps a copy of the response body the handler writes.
type recorder struct {
	http.ResponseWriter
	body bytes.Buffer
}

func (r *recorder) Write(b []byte) (int, error) {
	r.body.Write(b)
	return r.ResponseWriter.Write(b)
}

// middleware times /request and /metrics on the server side and keeps the
// /request answers for the encode replay.
func (p *loopProbe) middleware(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/metrics":
			t0 := time.Now()
			h.ServeHTTP(w, r)
			d := time.Since(t0)
			p.mu.Lock()
			defer p.mu.Unlock()
			p.scrape = append(p.scrape, float64(d))
			return
		case "/request":
		default:
			h.ServeHTTP(w, r)
			return
		}
		rec := &recorder{ResponseWriter: w}
		t0 := time.Now()
		h.ServeHTTP(rec, r)
		d := time.Since(t0)
		var resp qosd.Response
		if json.Unmarshal(rec.body.Bytes(), &resp) != nil || resp.Outcome != "served" {
			return
		}
		p.mu.Lock()
		defer p.mu.Unlock()
		p.handler = append(p.handler, float64(d)-resp.DelayUnits*float64(qosdUnit))
		if len(p.responses) < 4096 {
			p.responses = append(p.responses, resp)
		}
	})
}

// tracedQosd runs the stack untraced (ending with the rate ramp that finds
// the sustainable background rate) and then wrapped, and replays the traced phase's captured inputs into
// qosd.ParseRequest, JSON encoding, admission.Controller and a
// virtual-clock daemon in isolation.
func tracedQosd(o options, res *result, conns int, total time.Duration) error {
	phase := total * 3 / 10
	s, err := startStack(conns, nil)
	if err != nil {
		return err
	}
	plain, err := measure(s, o.seed, conns, phase, time.Duration(rampShare*float64(total)))
	if err != nil {
		s.stop()
		return err
	}
	if err := s.drainAndStop(); err != nil {
		res.fail("shutdown: %v", err)
	}
	_, plainOverhead, _ := collect(res, plain)
	checkBackground(res, plain)

	p := &loopProbe{}
	if s, err = startStack(conns, p); err != nil {
		return err
	}
	t0 := time.Now()
	run, err := measure(s, o.seed, conns, phase, 0)
	if err != nil {
		s.stop()
		return err
	}
	elapsed := time.Since(t0)
	if err := s.drainAndStop(); err != nil {
		res.fail("shutdown: %v", err)
	}
	rtt, overhead, probeMisses := collect(res, run)
	bgMisses, lag := checkBackground(res, run)
	if err := validRun(run, lag); err != nil {
		res.fail("invalid open-loop run: %v", err)
	}
	if minProbes := int(5 * o.seconds); len(overhead) < minProbes || len(plainOverhead) < minProbes {
		return fmt.Errorf("only %d/%d served probes; raise -seconds", len(plainOverhead), len(overhead))
	}

	m := res.metrics
	us := func(ns float64) float64 { return ns / 1e3 }
	m["qosd.max_rate_rps"] = plain.maxRate
	m["trace.overhead_frac"] = median(overhead)/median(plainOverhead) - 1
	m["qosd.verdict_p50_ms"] = median(rtt) / 1e6
	m["qosd.verdict_p99_ms"] = quantile(rtt, 0.99) / 1e6
	m["qosd.overhead_p99_us"] = us(quantile(plainOverhead, 0.99))
	sent := int64(run.fixed)
	for i := range run.probes {
		sent += run.probes[i].sent
	}
	m["qosd.miss_frac"] = float64(probeMisses+bgMisses) / float64(sent)
	m["loadgen.lag_p99_us"] = us(quantile(lag, 0.99))
	m["clock.lag_p50_us"] = us(median(p.lag))
	m["clock.lag_p99_us"] = us(quantile(p.lag, 0.99))
	m["clock.submit_wait_p50_us"] = us(median(p.submitWait))
	m["clock.submit_wait_p99_us"] = us(quantile(p.submitWait, 0.99))
	m["clock.busy_frac"] = p.busy.Seconds() / elapsed.Seconds()
	m["clock.pending_max"] = float64(p.pendingMax.Load())
	m["realtime.complete_us"] = us(median(p.complete))
	// A scrape holds the loop while it snapshots and renders; its server
	// time less the typical wait for the loop is that hold.
	m["qosd.scrape_us"] = us(max(0, median(p.scrape)-median(p.submitWait)))
	m["qosd.handler_us"] = us(median(p.handler))
	m["net.loopback_us"] = us(median(overhead) - median(p.handler))

	bg := run.gen.reqs[:run.fixed]
	var serve []float64
	for i := range bg {
		serve = append(serve, float64(bg[i].serveNs))
	}
	// Medians: a loop thread descheduled mid-call (two vCPUs shared with
	// the HTTP side and the generator) is not the call's cost.
	m["realtime.serve_us"] = us(median(serve))

	// Isolation replays of the traced phase's own inputs.
	var bodies [][]byte
	for i := range run.probes {
		bodies = append(bodies, run.probes[i].bodies...)
	}
	if m["qosd.decode_ns"], err = decodeReplay(bodies); err != nil {
		res.fail("%v", err)
	}
	m["qosd.encode_ns"] = encodeReplay(p.responses)
	if m["admission.admit_ns"], err = admitReplay(bg); err != nil {
		return err
	}
	isoServe, readNs, err := serveReplay(bg)
	if err != nil {
		return err
	}
	// The in-situ Serve time keeps the clock read the replay subtracts.
	worst, table := reconcile(res, []layerCost{{
		name: "realtime.serve", calls: int64(len(serve)),
		insituNs: median(serve), isoNs: isoServe, slackNs: readNs,
	}})
	m["reconcile.max_dev_frac"] = worst
	res.detail["reconciliation"] = table

	// Attribution of the traced run's serving overhead per request, the
	// total net.loopback was split from (the untraced total would leave the
	// wrappers' own cost as a negative remainder). The completion timer's
	// lag is not part of it: the engine-reported delay ends when the
	// completion fires, lag included.
	parts := map[string]float64{
		"net.loopback":      median(overhead) - median(p.handler),
		"qosd.decode":       m["qosd.decode_ns"],
		"qosd.encode":       m["qosd.encode_ns"],
		"clock.submit_wait": median(p.submitWait),
		"realtime.serve":    isoServe,
	}
	self, share, err := attribute(median(overhead), parts)
	if err != nil {
		return err
	}
	m["core.self_ns_per_req"] = self
	m["core.unattributed_frac"] = share
	res.detail["attribution_ns_per_req"] = parts
	res.detail["untraced_overhead_p50_ns"] = median(plainOverhead)
	res.detail["traced_overhead_p50_ns"] = median(overhead)
	res.detail["served_probes"] = len(overhead)
	return nil
}

// decodeReplay parses the captured request bodies with qosd.ParseRequest.
func decodeReplay(bodies [][]byte) (float64, error) {
	if len(bodies) == 0 {
		return 0, fmt.Errorf("decode replay: no captured bodies")
	}
	var err error
	ns := repeatFor(func() int {
		for _, b := range bodies {
			if _, e := qosd.ParseRequest(b); e != nil {
				err = e
			}
		}
		return len(bodies)
	})
	return ns, err
}

// encodeReplay JSON-encodes the captured responses the way the daemon
// writes them.
func encodeReplay(resps []qosd.Response) float64 {
	if len(resps) == 0 {
		return 0
	}
	enc := json.NewEncoder(io.Discard)
	return repeatFor(func() int {
		for i := range resps {
			_ = enc.Encode(resps[i]) // io.Discard never fails
		}
		return len(resps)
	})
}

// admitReplay runs the captured (time, class, load) admissions through a
// fresh controller configured as the daemon's, releasing each at once.
func admitReplay(bg []bgRequest) (float64, error) {
	ctl, err := admission.New(admission.Config{
		Classes:         make([]admission.ClassConfig, len(qosdConfig().ClassWeights)),
		DefaultDeadline: qosdDeadline,
	})
	if err != nil {
		return 0, err
	}
	var bad error
	ns := repeatFor(func() int {
		for i := range bg {
			class := int(bg[i].class)
			if v := ctl.Admit(bg[i].nowUnits, class, int(bg[i].load)); v == admission.Admitted {
				ctl.Release(class)
			} else if bad == nil {
				bad = fmt.Errorf("admission replay refused request %d: %v", i, v)
			}
		}
		return len(bg)
	})
	return ns, bad
}

// serveReplay submits the captured background requests, at their captured
// clock times, to a daemon on a virtual clock (exec runs inline) and times
// each Serve: the serving engine without the wall loop around it. Between
// calls it walks a buffer larger than the core's private caches, as the
// HTTP and generator goroutines do between two requests on the wall loop,
// so each Serve starts as cold as it does in situ. It returns the cost per
// call and the cost of one clock read beside it.
func serveReplay(bg []bgRequest) (float64, float64, error) {
	var sw stopwatch
	evict := make([]byte, evictBytes)
	start := time.Now()
	for sw.calls == 0 || time.Since(start) < minReplay {
		v := clock.NewVirtual()
		d, err := qosd.New(qosdConfig(), v, func(f func()) { f() })
		if err != nil {
			return 0, 0, err
		}
		d.Start()
		for i := range bg {
			if t := bg[i].nowUnits; t > v.Now() {
				v.RunUntil(t)
			}
			for j := 0; j < len(evict); j += 64 {
				evict[j]++
			}
			t0 := time.Now()
			d.Serve(qosd.Request{Item: int(bg[i].item)}, int(bg[i].class), func(int, qosd.Response) {})
			sw.add(t0)
		}
	}
	return sw.perCall(), sw.readNs(), nil
}
