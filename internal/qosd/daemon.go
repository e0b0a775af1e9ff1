// Package qosd is the serving daemon behind cmd/qosd: the hybrid push/pull
// slot loop (core.Server, built by core.NewServing) mounted on a clock,
// fronted by API-key → service-class authentication and class-aware
// admission control, exposed over HTTP. The daemon's telemetry is derived
// from the engine's event stream (trace.Apply), and /debug/spans is
// reconstructed from its span events by a span.Ring.
//
// The daemon is clock-agnostic: cmd/qosd runs it on a Wall clock with
// Wall.Submit bridging HTTP handler goroutines onto the engine loop, while
// the chaos tests run the identical handler stack on a Virtual clock and
// replay overload scenarios deterministically.
package qosd

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"

	"hybridqos/internal/admission"
	"hybridqos/internal/catalog"
	"hybridqos/internal/clients"
	"hybridqos/internal/clock"
	"hybridqos/internal/core"
	"hybridqos/internal/jsonenc"
	"hybridqos/internal/span"
	"hybridqos/internal/telemetry"
)

// daemon states, tracked atomically so /readyz answers from any goroutine
// without touching the clock loop.
const (
	stateStarting int32 = iota
	stateReady
	stateDraining
	stateDrained
)

// Response is the JSON body answering /request.
type Response struct {
	// Outcome is "served", "expired", or the refusal verdict
	// ("shed_overload", "rate_limited", "quota_exceeded", "draining").
	Outcome string `json:"outcome"`
	// Class is the request's resolved service class.
	Class int `json:"class"`
	// DelayUnits is the access delay in broadcast units (served only).
	DelayUnits float64 `json:"delay_units,omitempty"`
	// Push reports whether a broadcast served it.
	Push bool `json:"push,omitempty"`
}

// appendJSON appends r exactly as encoding/json's Encoder writes it: the
// object, then a newline. Outcome is copied between quotes unescaped, as
// every outcome Serve answers with is a plain ASCII word, and DelayUnits
// is finite, as every engine delay is.
func (r Response) appendJSON(b []byte) []byte {
	b = append(append(append(b, `{"outcome":"`...), r.Outcome...), '"')
	b = strconv.AppendInt(append(b, `,"class":`...), int64(r.Class), 10)
	if r.DelayUnits != 0 {
		b = jsonenc.AppendFloat(append(b, `,"delay_units":`...), r.DelayUnits)
	}
	if r.Push {
		b = append(b, `,"push":true`...)
	}
	return append(b, "}\n"...)
}

// Daemon wires the serving engine to HTTP.
type Daemon struct {
	cat  *catalog.Catalog
	clk  clock.Clock
	exec func(func())
	srv  *core.Server
	tele *telemetry.Collector
	ring *span.Ring // nil with spans off

	keys         map[string]int
	defaultClass int
	state        atomic.Int32

	calls         sync.Pool // *call: handleRequest's per-request state
	scrapes       sync.Pool // *scrape: handleMetrics's per-scrape state
	rejectUnknown func()    // counts a 401 on the clock goroutine
}

// New builds a Daemon on the given clock. exec must run its argument on
// the clock's handler goroutine (Wall.Submit for serving; for single-
// threaded virtual-clock tests, calling the function directly is correct
// because the caller already owns the clock goroutine).
func New(cfg Config, clk clock.Clock, exec func(func())) (*Daemon, error) {
	if clk == nil || exec == nil {
		return nil, fmt.Errorf("qosd: nil clock or exec")
	}
	d, err := cfg.engine(clk)
	if err != nil {
		return nil, err
	}
	d.exec = exec
	return d, nil
}

// engine builds everything but exec on clk: the catalog, classification,
// collector, span ring and serving engine. It is the one judge of a
// configuration (Validate runs it on a throwaway clock); its own checks
// cover only the serving fields no constructor sees.
func (c Config) engine(clk clock.Clock) (*Daemon, error) {
	if !(c.UnitMillis > 0) || math.IsInf(c.UnitMillis, 0) {
		return nil, fmt.Errorf("qosd: unit_ms %g not positive and finite", c.UnitMillis)
	}
	// A rate above 1 reaches core, which refuses it; a negative or NaN
	// rate would silently turn spans off instead.
	if s := c.Spans; s != nil && (s.Rate < 0 || math.IsNaN(s.Rate) || s.Buffer < 0) {
		return nil, fmt.Errorf("qosd: invalid spans section (rate %g, buffer %d)", s.Rate, s.Buffer)
	}
	cat, err := catalog.Generate(catalog.Config{
		D: c.Catalog.D, Theta: c.Catalog.Theta,
		MinLen: c.Catalog.MinLen, MaxLen: c.Catalog.MaxLen, Seed: c.Catalog.Seed,
	})
	if err != nil {
		return nil, fmt.Errorf("qosd: %w", err)
	}
	cls, err := clients.New(clients.Config{Weights: c.ClassWeights})
	if err != nil {
		return nil, fmt.Errorf("qosd: %w", err)
	}
	numClasses := cls.NumClasses()
	if dc := c.defaultClass(); dc < -1 || dc >= numClasses {
		return nil, fmt.Errorf("qosd: default_class %d outside [-1,%d)", dc, numClasses)
	}
	// Copy the key map in sorted order (deterministic error messages).
	keys := make(map[string]int, len(c.Keys))
	for _, k := range sortedKeys(c.Keys) {
		if k == "" {
			return nil, fmt.Errorf("qosd: empty API key")
		}
		if class := c.Keys[k]; class < 0 || class >= numClasses {
			return nil, fmt.Errorf("qosd: key %q maps to class %d outside [0,%d)", k, class, numClasses)
		}
		keys[k] = c.Keys[k]
	}
	tele, err := telemetry.New(telemetry.Options{})
	if err != nil {
		return nil, fmt.Errorf("qosd: %w", err)
	}
	ccfg := core.Config{
		Catalog:        cat,
		Classes:        cls,
		Cutoff:         c.Cutoff,
		Alpha:          c.Alpha,
		PullPolicyName: c.PullPolicy,
		PushPolicyName: c.PushPolicy,
		PushDisks:      c.PushDisks,
		Telemetry:      tele,
	}
	var ring *span.Ring
	if sc := c.Spans; sc != nil && sc.Rate > 0 {
		ring = span.NewRing(sc.Buffer)
		rates := make([]float64, numClasses)
		for i := range rates {
			rates[i] = sc.Rate
		}
		ccfg.Tracer = ring
		ccfg.Spans = &core.SpanConfig{Rates: rates}
		ccfg.Seed = sc.Seed
	}
	// Omitted admission classes are fully open: pad to one entry per class
	// (into a fresh slice, never the caller's). Extra entries are left for
	// NewServing to refuse.
	adm := c.Admission
	if pad := numClasses - len(adm.Classes); pad > 0 {
		adm.Classes = append(adm.Classes[:len(adm.Classes):len(adm.Classes)], make([]admission.ClassConfig, pad)...)
	}
	srv, err := core.NewServing(ccfg, clk, adm)
	if err != nil {
		return nil, fmt.Errorf("qosd: %w", err)
	}
	d := &Daemon{
		cat:          cat,
		clk:          clk,
		srv:          srv,
		tele:         tele,
		ring:         ring,
		keys:         keys,
		defaultClass: c.defaultClass(),
	}
	d.rejectUnknown = func() { tele.Rejected(telemetry.ClassNone) }
	d.calls.New = func() any { return d.newCall() }
	d.scrapes.New = func() any { return d.newScrape() }
	return d, nil
}

// Start launches the engine's broadcast loop on the clock goroutine and
// marks the daemon ready.
func (d *Daemon) Start() {
	d.exec(func() {
		d.srv.Start()
		d.state.Store(stateReady)
	})
}

// Drain stops admission, lets every admitted request resolve by its
// deadline, then calls onDrained once (from the clock goroutine). New
// /request calls are answered 503 immediately.
func (d *Daemon) Drain(onDrained func()) {
	d.exec(func() {
		if d.srv.Draining() {
			return
		}
		d.state.Store(stateDraining)
		d.srv.Drain(func() {
			d.state.Store(stateDrained)
			if onDrained != nil {
				onDrained()
			}
		})
	})
}

// Telemetry exposes the daemon's collector (tests, embedding).
func (d *Daemon) Telemetry() *telemetry.Collector { return d.tele }

// Engine exposes the underlying serving engine (tests, embedding).
func (d *Daemon) Engine() *core.Server { return d.srv }

// Spans returns the completed spans the ring buffers, oldest first (nil
// with spans off). Like every engine access it must run on the clock
// goroutine; handleSpans bridges via exec.
func (d *Daemon) Spans() []*span.Span {
	if d.ring == nil {
		return nil
	}
	return d.ring.Spans()
}

// classOf resolves an API key to a service class; ok=false means reject.
func (d *Daemon) classOf(key string) (int, bool) {
	if c, found := d.keys[key]; found {
		return c, true
	}
	if d.defaultClass >= 0 {
		return d.defaultClass, true
	}
	return -1, false
}

// Serve runs one parsed, authenticated request through the engine and
// reports the HTTP status and body via respond — synchronously for
// refusals, from a later clock event for admitted requests, which the
// engine keeps respond for in its own request arena. Serve must be called
// on the clock goroutine; ServeHTTP bridges via exec. This is the entry
// point the virtual-clock chaos tests drive.
//
//qos:hotpath
func (d *Daemon) Serve(req Request, class int, respond func(status int, resp Response)) {
	if d.srv.Draining() {
		d.tele.Rejected(class)
		d.srv.RefuseDraining(req.Item, clients.Class(class))
		respond(http.StatusServiceUnavailable, Response{Outcome: "draining", Class: class})
		return
	}
	if req.Item < 1 || req.Item > d.cat.D() {
		respond(http.StatusBadRequest, Response{Outcome: "bad_item", Class: class})
		return
	}
	if v := d.srv.Submit(req.Item, clients.Class(class), req.DeadlineIn, responder(respond)); v != admission.Admitted {
		respond(http.StatusTooManyRequests, Response{Outcome: v.String(), Class: class})
	}
}

// responder is Serve's respond as the engine's core.Done. A func value is
// one pointer, so it converts to the interface without allocating.
type responder func(status int, resp Response)

// Done relays the engine's verdict on an admitted request to its respond.
//
//qos:hotpath
func (r responder) Done(res core.Result) {
	class := int(res.Class)
	if res.Outcome == core.OutcomeServed {
		r(http.StatusOK, Response{
			Outcome:    "served",
			Class:      class,
			DelayUnits: res.Delay,
			Push:       res.Push,
		})
	} else {
		r(http.StatusGatewayTimeout, Response{Outcome: "expired", Class: class})
	}
}

// Handler returns the daemon's HTTP mux:
//
//	POST /request  — {"item": N[, "deadline_in": U]} with X-API-Key; waits
//	                 for the item (200 served / 504 expired) or refuses
//	                 (400 malformed body, 401 unknown key, 413 body over
//	                 maxBody, 429 admission, 503 draining).
//	GET  /metrics  — live Prometheus exposition of the telemetry registry.
//	GET  /debug/spans — recent completed sampled request spans as JSON
//	                 (empty array unless the config enables spans).
//	GET  /healthz  — 200 while the process lives.
//	GET  /readyz   — 200 once started and not draining, else 503.
func (d *Daemon) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/request", d.handleRequest)
	mux.HandleFunc("/metrics", d.handleMetrics)
	mux.HandleFunc("/debug/spans", d.handleSpans)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if d.state.Load() == stateReady {
			fmt.Fprintln(w, "ready")
			return
		}
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "not ready")
	})
	return mux
}

// maxBody caps a /request body in bytes; a longer one is answered 413.
const maxBody = 1 << 16

// answer is one buffered HTTP reply from the clock goroutine.
type answer struct {
	status int
	resp   Response
}

// call is one /request's state between the handler goroutine and the
// clock goroutine, pooled in Daemon.calls so a request allocates none of
// it: the body buffer, the parsed request and class, the buffered answer
// channel, and run and respond, built once per call. A call returns to the
// pool only after its answer has been received, when the clock goroutine
// is done with it.
type call struct {
	body    bytes.Buffer
	req     Request
	class   int
	ch      chan answer // capacity 1: the clock goroutine never blocks on it
	run     func()      // Serve(req, class, respond), for exec
	respond func(status int, resp Response)
}

// newCall builds the pool's next call for d.
func (d *Daemon) newCall() *call {
	c := &call{ch: make(chan answer, 1)}
	c.respond = func(status int, resp Response) { c.ch <- answer{status, resp} }
	c.run = func() { d.Serve(c.req, c.class, c.respond) }
	return c
}

// handleRequest is the HTTP face of Serve. It blocks the handler goroutine
// until the engine resolves the request — for an admitted request that can
// be the full deadline budget.
//
//qos:hotpath
func (d *Daemon) handleRequest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	// Short-circuit outside the serving window without touching the clock
	// loop: before Start it is not yet consuming, after drain completion it
	// may already be stopped.
	if s := d.state.Load(); s == stateStarting || s == stateDrained {
		http.Error(w, "not serving", http.StatusServiceUnavailable)
		return
	}
	// net/http stores header names canonically; asking in that form skips
	// re-canonicalising the name on every request.
	class, ok := d.classOf(r.Header.Get("X-Api-Key"))
	if !ok {
		// The collector belongs to the clock goroutine: count the refusal
		// there, without waiting for it.
		d.exec(d.rejectUnknown)
		http.Error(w, "unknown API key", http.StatusUnauthorized)
		return
	}
	c := d.calls.Get().(*call)
	defer d.calls.Put(c)
	// MaxBytesReader, not a bare limit: past maxBody it answers 413 and
	// closes the connection instead of reading the rest.
	c.body.Reset()
	if _, err := c.body.ReadFrom(http.MaxBytesReader(w, r.Body, maxBody)); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			http.Error(w, "request body too large", http.StatusRequestEntityTooLarge)
			return
		}
		http.Error(w, "reading body", http.StatusBadRequest)
		return
	}
	req, err := ParseRequest(c.body.Bytes())
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	// The handler goroutine owns the write; if the client is gone the
	// response is simply discarded by net/http.
	c.req, c.class = req, class
	d.exec(c.run)
	a := <-c.ch
	writeResponse(w, a.status, a.resp)
}

// Content-Type header values, shared by every response that sets them
// (net/http only reads them).
var (
	jsonContentType = []string{"application/json"}
	promContentType = []string{"text/plain; version=0.0.4; charset=utf-8"}
)

// bufPool recycles response body buffers across handler goroutines.
var bufPool = sync.Pool{New: func() any { return new([]byte) }}

// writeResponse writes one /request answer, byte-identical to
// writeJSON's encoding of it.
func writeResponse(w http.ResponseWriter, status int, resp Response) {
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(status)
	buf := bufPool.Get().(*[]byte)
	*buf = resp.appendJSON((*buf)[:0])
	w.Write(*buf) //nolint:errcheck // the client may be gone; nothing to do
	bufPool.Put(buf)
}

// scrape is one /metrics request's state between the handler goroutine
// and the clock goroutine, pooled in Daemon.scrapes as call is: the
// buffered snapshot channel and take, built once per scrape. A scrape
// returns to the pool only after its snapshot has been received.
type scrape struct {
	ch   chan *telemetry.Snapshot // capacity 1: the clock goroutine never blocks on it
	take func()                   // TakeSnapshot into ch, for exec
}

// newScrape builds the pool's next scrape for d.
func (d *Daemon) newScrape() *scrape {
	sc := &scrape{ch: make(chan *telemetry.Snapshot, 1)}
	sc.take = func() { sc.ch <- d.tele.TakeSnapshot(d.clk.Now()) }
	return sc
}

// handleMetrics snapshots the registry on the clock goroutine, then renders
// the snapshot, which owns its counts, here on the handler goroutine: a
// scrape holds the engine loop only for the copy.
func (d *Daemon) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	if d.state.Load() == stateDrained {
		// The clock loop may already be stopped; nothing left to report.
		http.Error(w, "drained", http.StatusServiceUnavailable)
		return
	}
	sc := d.scrapes.Get().(*scrape)
	d.exec(sc.take)
	snap := <-sc.ch
	d.scrapes.Put(sc)
	buf := bufPool.Get().(*[]byte)
	*buf = telemetry.AppendProm((*buf)[:0], snap)
	w.Header()["Content-Type"] = promContentType
	w.Write(*buf) //nolint:errcheck // the client may be gone; nothing to do
	bufPool.Put(buf)
}

// handleSpans snapshots the completed-span ring on the clock goroutine and
// serves it as a JSON array, oldest span first.
func (d *Daemon) handleSpans(w http.ResponseWriter, _ *http.Request) {
	if d.state.Load() == stateDrained {
		// The clock loop may already be stopped; nothing left to ask.
		http.Error(w, "drained", http.StatusServiceUnavailable)
		return
	}
	ch := make(chan []*span.Span, 1)
	d.exec(func() { ch <- d.Spans() })
	spans := <-ch
	if spans == nil {
		spans = []*span.Span{}
	}
	writeJSON(w, http.StatusOK, spans)
}

// writeJSON writes one JSON response body (/debug/spans).
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.Encode(v) //nolint:errcheck // the client may be gone; nothing to do
}
