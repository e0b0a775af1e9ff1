package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hybridqos/internal/catalog"
	"hybridqos/internal/clients"
	"hybridqos/internal/clock"
	"hybridqos/internal/httpserve"
	"hybridqos/internal/qosd"
	"hybridqos/internal/rng"
	"hybridqos/internal/workload"
)

// The qosd-loopback workload: cmd/qosd's stack in one process — qosd.New on
// a clock.Wall with Wall.Submit as exec, Daemon.Handler() on
// httpserve.Start("127.0.0.1:0") — driven by closed-loop HTTP probes on
// nproc keep-alive connections (with periodic /metrics scrapes sharing
// them) and an open-loop background stream submitted through Daemon.Serve.
const (
	// qosdUnit is one broadcast unit of wall time; at this unit the loop
	// keeps up and deadline misses are rare.
	qosdUnit = 50 * time.Microsecond
	// qosdDeadline is every class's delay budget in broadcast units.
	qosdDeadline = 2000
	// deadlineSlack (broadcast units, 50 ms) is how far a served delay may
	// pass the deadline: the engine reports a completion's fire time, and on
	// a wall clock a completion scheduled inside the deadline fires late by
	// the loop's timer lag (about 1 ms on a 2-vCPU VM) and by any stall of
	// the process (5–20 ms stalls came a few times a minute on that VM).
	deadlineSlack = 1000
	// bgRate is the background stream's offered rate in requests/s.
	bgRate = 1000
	// scrapeEvery is the /metrics scrape period.
	scrapeEvery = 100 * time.Millisecond
	// qosdSetups is how many times a run starts the stack from scratch.
	qosdSetups = 201
	// maxLoadgenLag and maxBacklog bound a valid open-loop run: the
	// generator's 90th-percentile lateness, and background requests
	// submitted but not yet started on the loop when the fixed-rate phase
	// ends. A stall of the process delays the requests due during it, but
	// the generator catches up and every request is timed from its due time;
	// the bound is on the 90th percentile so that what marks a run invalid
	// is a generator that falls behind, not a handful of stalls (they put
	// the 99th percentile past 5 ms in half the runs on a 2-vCPU VM; it is
	// reported as loadgen.lag_p99_us).
	maxLoadgenLag = 5 * time.Millisecond
	maxBacklog    = 50
	// Ramp (traced runs): the background rate climbs linearly from bgRate
	// to rampMax for a share of the run (see rampSearch).
	rampShare  = 0.2
	rampMax    = 1000000
	rampWindow = 250 * time.Millisecond
)

// qosdConfig is the daemon configuration: the paper's class weights over a
// 100-item catalog, K=40, γ(α=0.5), no shedding or rate limits.
func qosdConfig() qosd.Config {
	return qosd.Config{
		Catalog:      qosd.CatalogConfig{D: 100, Theta: 0.6, MinLen: 1, MaxLen: 5, Seed: 42},
		ClassWeights: clients.PaperConfig().Weights,
		Cutoff:       40, Alpha: 0.5,
		UnitMillis: float64(qosdUnit) / float64(time.Millisecond),
		Keys:       map[string]int{"class-0": 0, "class-1": 1, "class-2": 2},
		Admission:  qosd.AdmissionConfig{DefaultDeadline: qosdDeadline},
	}
}

// stack is one running daemon with its HTTP front and client.
type stack struct {
	wall   *clock.Wall
	d      *qosd.Daemon
	exec   func(func())
	srv    *httpserve.Server
	client *http.Client
	base   string
	probe  *loopProbe // nil untraced
	// ready is how long the stack took from construction until it answered
	// /readyz: set-up without the connections' warm-up requests, whose time
	// is the modelled broadcast wait and the loop's timer lag.
	ready time.Duration
}

// startStack builds and starts the serving stack, waits until it answers
// /readyz, and opens conns keep-alive connections with one warm-up request
// each. A non-nil probe wraps the clock, exec and handler.
func startStack(conns int, probe *loopProbe) (*stack, error) {
	t0 := time.Now()
	wall, err := clock.NewWall(qosdUnit)
	if err != nil {
		return nil, err
	}
	var clk clock.Clock = wall
	exec := wall.Submit
	if probe != nil {
		probe.inner = wall
		clk, exec = probe, probe.exec
	}
	d, err := qosd.New(qosdConfig(), clk, exec)
	if err != nil {
		return nil, err
	}
	go wall.Run()
	d.Start()
	// Start rides the clock loop; a no-op queued behind it marks it done.
	started := make(chan struct{})
	exec(func() { close(started) })
	<-started
	h := d.Handler()
	if probe != nil {
		h = probe.middleware(h)
	}
	srv, err := httpserve.Start("127.0.0.1:0", h)
	if err != nil {
		wall.Stop()
		<-wall.Done()
		return nil, err
	}
	s := &stack{
		wall: wall, d: d, exec: exec, srv: srv, base: "http://" + srv.Addr.String(), probe: probe,
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns, DisableCompression: true,
		}},
	}
	for i := 0; ; i++ {
		resp, err := s.client.Get(s.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				s.ready = time.Since(t0)
				break
			}
		}
		if i == 1000 {
			s.stop()
			return nil, fmt.Errorf("daemon not ready: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
	var wg sync.WaitGroup
	errs := make([]error, conns)
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			_, _, errs[c] = s.post(c%3, 41+c)
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			s.stop()
			return nil, err
		}
	}
	return s, nil
}

// post sends one /request and decodes the answer.
func (s *stack) post(class, item int) (int, qosd.Response, error) {
	req, err := http.NewRequest(http.MethodPost, s.base+"/request",
		strings.NewReader(fmt.Sprintf(`{"item":%d}`, item)))
	if err != nil {
		return 0, qosd.Response{}, err
	}
	req.Header.Set("X-API-Key", fmt.Sprintf("class-%d", class))
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, qosd.Response{}, err
	}
	defer resp.Body.Close()
	var out qosd.Response
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return resp.StatusCode, out, fmt.Errorf("decoding %d response: %w", resp.StatusCode, err)
	}
	return resp.StatusCode, out, nil
}

// scrape fetches /metrics and checks it carries the arrival counter.
func (s *stack) scrape() error {
	resp, err := s.client.Get(s.base + "/metrics")
	if err != nil {
		return err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK || !bytes.Contains(body, []byte("hybridqos_arrivals_total")) {
		return fmt.Errorf("/metrics answered %d without the arrivals counter", resp.StatusCode)
	}
	return nil
}

// drainAndStop drains the daemon (every admitted request resolves by its
// deadline), then shuts the HTTP server and the clock loop down.
func (s *stack) drainAndStop() error {
	drained := make(chan struct{})
	s.d.Drain(func() { close(drained) })
	var err error
	select {
	case <-drained:
	case <-time.After(10 * time.Second):
		err = fmt.Errorf("drain did not complete")
	}
	if serr := s.stop(); err == nil {
		err = serr
	}
	return err
}

// stop shuts the HTTP server and the clock loop down and waits for both.
func (s *stack) stop() error {
	// Close the client side first: a connection the transport dialled but
	// never used would hold Shutdown for net/http's 5 s new-connection grace.
	s.client.CloseIdleConnections()
	var err error
	if s.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		err = s.srv.Shutdown(ctx)
		cancel()
	}
	s.wall.Stop()
	<-s.wall.Done()
	return err
}

// probeStats is what one closed-loop probe connection observed.
type probeStats struct {
	rtt, overhead        []float64 // ns
	sent, failed, misses int64
	scrapes              int64
	checks               []string
	bodies               [][]byte
}

// probeLoop runs closed-loop /request probes until stop closes; the probe
// with scraper set also scrapes /metrics every scrapeEvery on the same
// connection pool.
func (s *stack) probeLoop(id int, seed uint64, scraper bool, stop <-chan struct{}, st *probeStats, items workload.ItemSampler) {
	r := rng.New(seed).Split(fmt.Sprintf("probe-%d", id))
	nextScrape := time.Now().Add(scrapeEvery)
	for k := 0; ; k++ {
		select {
		case <-stop:
			return
		default:
		}
		if scraper && time.Now().After(nextScrape) {
			nextScrape = nextScrape.Add(scrapeEvery)
			st.scrapes++
			if err := s.scrape(); err != nil {
				st.failed++
				st.checks = append(st.checks, "scrape: "+err.Error())
			}
		}
		class, item := (id+k)%3, items.SampleItem(r, 0)
		t0 := time.Now()
		status, resp, err := s.post(class, item)
		rtt := time.Since(t0)
		st.sent++
		if err != nil {
			st.failed++
			st.checks = append(st.checks, err.Error())
			continue
		}
		if msg := checkAnswer(status, resp, class); msg != "" {
			st.failed++
			st.checks = append(st.checks, msg)
			continue
		}
		if resp.Outcome != "served" {
			st.misses++
			continue
		}
		st.rtt = append(st.rtt, float64(rtt))
		st.overhead = append(st.overhead, float64(rtt)-resp.DelayUnits*float64(qosdUnit))
		if s.probe != nil && len(st.bodies) < 4096 {
			st.bodies = append(st.bodies, []byte(fmt.Sprintf(`{"item":%d}`, item)))
		}
	}
}

// checkAnswer checks one verdict: the status matches the outcome, the class
// is the key's, and a served delay is within the deadline (plus the loop's
// timer-lag slack). "" when fine.
func checkAnswer(status int, resp qosd.Response, class int) string {
	want := map[string]int{
		"served": http.StatusOK, "expired": http.StatusGatewayTimeout,
		"shed_overload": http.StatusTooManyRequests, "rate_limited": http.StatusTooManyRequests,
		"quota_exceeded": http.StatusTooManyRequests,
	}[resp.Outcome]
	switch {
	case want == 0 || want != status:
		return fmt.Sprintf("status %d with outcome %q", status, resp.Outcome)
	case resp.Class != class:
		return fmt.Sprintf("class %d answered as class %d", class, resp.Class)
	case resp.Outcome == "served" && (resp.DelayUnits < 0 || resp.DelayUnits > qosdDeadline+deadlineSlack):
		return fmt.Sprintf("served delay %g outside [0,%d+%d]", resp.DelayUnits, qosdDeadline, deadlineSlack)
	}
	return ""
}

// bgRequest is one open-loop background request, kept compact: a ramp
// logs hundreds of thousands of them.
type bgRequest struct {
	due, submitted, answered int64 // ns since the generator's start
	// started is when Serve began on the loop (ns since the generator's
	// start); atomic because the ramp search reads it while the loop runs.
	started  atomic.Int64
	serveNs  int64
	delay    float64 // engine-reported delay, broadcast units
	outcome  string
	status   int32
	class    int32
	item     int32
	load     int32   // engine pending count at Serve (traced runs)
	nowUnits float64 // clock time at Serve, broadcast units (traced runs)
}

// response is the answer as the daemon reported it.
func (br *bgRequest) response() qosd.Response {
	return qosd.Response{Outcome: br.outcome, Class: int(br.class), DelayUnits: br.delay}
}

// generator is the open-loop background stream: one goroutine submitting
// requests at their due times through Daemon.Serve via exec. Fixed-rate
// requests live in a preallocated log the loop goroutine fills in; ramp
// requests are only counted, their answers checked on the loop.
type generator struct {
	s       *stack
	t0      time.Time
	fixed   time.Duration // length of the fixed-rate phase
	reqs    []bgRequest
	logged  int          // entries of reqs in use (generator goroutine only)
	n       atomic.Int64 // requests submitted
	started atomic.Int64 // requests whose Serve began on the loop
	classes *clients.Classification
	items   workload.ItemSampler
	r       *rng.Source

	rampAnswered, rampBad atomic.Int64
	rampFirstBad          string // loop goroutine only
}

// run submits requests until stop closes. rate gives the offered rate at
// a time since start; due times follow it exactly, however late the
// goroutine wakes, so lateness shows as lag instead of lost load.
func (g *generator) run(start time.Time, rate func(time.Duration) float64, stop <-chan struct{}) {
	due := start
	for {
		now := time.Now()
		for !due.After(now) {
			if due.Sub(start) < g.fixed {
				if g.logged == len(g.reqs) {
					return
				}
				g.submit(due, now)
			} else {
				g.submitRamp()
			}
			due = due.Add(time.Duration(float64(time.Second) / rate(due.Sub(start))))
		}
		select {
		case <-stop:
			return
		case <-time.After(min(due.Sub(now), time.Millisecond)):
		}
	}
}

// submit hands the next fixed-rate request to the loop, logging it.
func (g *generator) submit(due, now time.Time) {
	br := &g.reqs[g.logged]
	g.logged++
	br.due, br.submitted = int64(due.Sub(g.t0)), int64(now.Sub(g.t0))
	br.class = int32(g.classes.SampleClass(g.r))
	br.item = int32(g.items.SampleItem(g.r, 0))
	g.n.Add(1)
	g.s.exec(func() {
		t0 := time.Now()
		br.started.Store(int64(t0.Sub(g.t0)))
		g.started.Add(1)
		if g.s.probe != nil {
			br.nowUnits, br.load = g.s.wall.Now(), int32(g.s.d.Engine().Pending())
		}
		g.s.d.Serve(qosd.Request{Item: int(br.item)}, int(br.class), func(status int, resp qosd.Response) {
			br.answered = int64(time.Since(g.t0))
			br.status, br.outcome, br.delay = int32(status), resp.Outcome, resp.DelayUnits
		})
		br.serveNs = int64(time.Since(t0))
	})
}

// submitRamp hands the next ramp request to the loop. Its answer is
// checked there: status and outcome must agree (a lagging loop may report
// a served delay past the deadline, so the delay bound is not applied).
func (g *generator) submitRamp() {
	class := int(g.classes.SampleClass(g.r))
	item := g.items.SampleItem(g.r, 0)
	g.n.Add(1)
	g.s.exec(func() {
		g.started.Add(1)
		g.s.d.Serve(qosd.Request{Item: item}, class, func(status int, resp qosd.Response) {
			resp.DelayUnits = min(resp.DelayUnits, qosdDeadline)
			if msg := checkAnswer(status, resp, class); msg != "" {
				if g.rampBad.Add(1) == 1 {
					g.rampFirstBad = msg
				}
			}
			g.rampAnswered.Add(1)
		})
	})
}

// qosdRun is one measured phase's raw observations.
type qosdRun struct {
	probes      []probeStats
	gen         *generator
	allocs      uint64
	bytes       uint64
	fixed       int     // background requests submitted in the fixed-rate phase
	peakRSS     float64 // MiB, read at the end of the fixed-rate phase
	maxRate     float64
	backlogNote string
}

// measure drives probes, scrapes and the background stream for d, then
// (when ramp > 0) stops the probes and ramps the background rate for ramp.
func measure(s *stack, seed uint64, conns int, d, ramp time.Duration) (*qosdRun, error) {
	cat, err := catalog.Generate(catalog.Config{D: 100, Theta: 0.6, MinLen: 1, MaxLen: 5, Seed: 42})
	if err != nil {
		return nil, err
	}
	cls, err := clients.New(clients.PaperConfig())
	if err != nil {
		return nil, err
	}
	items := workload.StaticPopularity{Catalog: cat}
	g := &generator{
		s: s, fixed: d, reqs: make([]bgRequest, int(bgRate*d.Seconds())+1000),
		classes: cls, items: items, r: rng.New(seed).Split("background"),
	}
	if ramp == 0 {
		g.fixed = d + time.Hour // no ramp: every request is logged
	}
	run := &qosdRun{probes: make([]probeStats, conns), gen: g}

	stopProbes, stopGen := make(chan struct{}), make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			s.probeLoop(c, seed, c == 0, stopProbes, &run.probes[c], items)
		}(c)
	}
	genDone := make(chan struct{})
	obj0, b0 := heapAllocs()
	start := time.Now()
	g.t0 = start
	rate := func(t time.Duration) float64 {
		if t <= d || ramp == 0 {
			return bgRate
		}
		return bgRate + (rampMax-bgRate)*float64(t-d)/float64(ramp)
	}
	go func() {
		defer close(genDone)
		g.run(start, rate, stopGen)
	}()
	time.Sleep(d)
	close(stopProbes)
	wg.Wait()
	obj1, b1 := heapAllocs()
	run.allocs, run.bytes = obj1-obj0, b1-b0
	run.peakRSS = peakRSSMB()
	if backlog := g.n.Load() - g.started.Load(); backlog > maxBacklog {
		run.backlogNote = fmt.Sprintf("backlog of %d at the end of the fixed-rate phase", backlog)
	}
	if ramp > 0 {
		run.maxRate = rampSearch(g, start, d, ramp)
	}
	close(stopGen)
	<-genDone
	run.fixed = g.logged
	return run, nil
}

// rampSearch watches the ramp in rampWindow steps, comparing requests
// submitted with requests whose Serve started on the loop. A window keeps
// up when the backlog between the two grows by at most 5% of what it
// submitted; the result is the highest loop throughput among windows that
// kept up. Two failing windows in a row end the search (one alone, such as
// a GC pause, does not), so overload is brief.
func rampSearch(g *generator, start time.Time, d, ramp time.Duration) float64 {
	best, failing := 0.0, 0
	prevSub, prevStarted, prevT := g.n.Load(), g.started.Load(), time.Now()
	for end := d + rampWindow; end <= d+ramp; end += rampWindow {
		time.Sleep(time.Until(start.Add(end)))
		sub, started, now := g.n.Load(), g.started.Load(), time.Now()
		growth := (sub - started) - (prevSub - prevStarted)
		if float64(growth) > 0.05*float64(sub-prevSub) {
			if failing++; failing == 2 {
				return best
			}
		} else {
			failing = 0
			best = max(best, float64(started-prevStarted)/now.Sub(prevT).Seconds())
		}
		prevSub, prevStarted, prevT = sub, started, now
	}
	return best
}

// collect folds probe observations into res and returns the pooled
// served-probe samples.
func collect(res *result, run *qosdRun) (rtt, overhead []float64, misses int64) {
	for i := range run.probes {
		p := &run.probes[i]
		rtt = append(rtt, p.rtt...)
		overhead = append(overhead, p.overhead...)
		res.attempted += p.sent + p.scrapes
		res.failed += p.failed
		misses += p.misses
		for j, c := range p.checks {
			if j == 3 {
				res.fail("probe %d: %d more failed checks", i, len(p.checks)-3)
				break
			}
			res.fail("probe %d: %s", i, c)
		}
	}
	return rtt, overhead, misses
}

// checkBackground checks, after drain, that every submitted background
// request was answered with a consistent verdict (ramp answers were
// checked on the loop), records the fixed-rate verdict latency timed from
// each request's due time, and returns the fixed-rate phase's misses
// (expired or refused) and the generator's lateness per request.
func checkBackground(res *result, run *qosdRun) (misses int64, lag []float64) {
	g := run.gen
	n := int(g.n.Load())
	res.attempted += int64(n)
	var unanswered, bad int
	var fromDue []float64
	for i := 0; i < run.fixed; i++ {
		br := &g.reqs[i]
		lag = append(lag, float64(br.submitted-br.due))
		if br.answered == 0 {
			unanswered++
			continue
		}
		fromDue = append(fromDue, float64(br.answered-br.due))
		if msg := checkAnswer(int(br.status), br.response(), int(br.class)); msg != "" {
			if bad++; bad == 1 {
				res.fail("background request %d: %s", i, msg)
			}
			continue
		}
		if br.outcome != "served" {
			misses++
		}
	}
	unanswered += n - run.fixed - int(g.rampAnswered.Load())
	if rb := int(g.rampBad.Load()); rb > 0 {
		bad += rb
		res.fail("ramp request: %s", g.rampFirstBad)
	}
	if unanswered > 0 {
		res.fail("%d of %d background requests unanswered after drain", unanswered, n)
	}
	if bad > 0 {
		res.failed += int64(bad)
		res.fail("%d background answers inconsistent", bad)
	}
	if len(fromDue) > 0 {
		res.detail["background_verdict_from_due_p50_ms"] = median(fromDue) / 1e6
		res.detail["background_verdict_from_due_p99_ms"] = quantile(fromDue, 0.99) / 1e6
	}
	return misses, lag
}

func runQosd(o options) (*result, error) {
	res := newResult()
	conns := runtime.NumCPU()
	var setups []float64
	for i := 0; i < qosdSetups; i++ {
		runtime.GC() // every set-up starts from the same collected heap
		s, err := startStack(conns, nil)
		if err != nil {
			return nil, err
		}
		setups = append(setups, s.ready.Seconds())
		if err := s.stop(); err != nil {
			return nil, err
		}
	}
	res.metrics["setup_s"] = median(setups)
	res.detail["connections"] = conns
	res.detail["unit_us"] = qosdUnit.Microseconds()
	total := time.Duration(o.seconds * float64(time.Second))
	if o.trace {
		return res, tracedQosd(o, res, conns, total)
	}

	s, err := startStack(conns, nil)
	if err != nil {
		return nil, err
	}
	run, err := measure(s, o.seed, conns, total, 0)
	if err != nil {
		s.stop()
		return nil, err
	}
	if err := s.drainAndStop(); err != nil {
		res.fail("shutdown: %v", err)
	}
	_, overhead, _ := collect(res, run)
	_, lag := checkBackground(res, run)
	if err := validRun(run, lag); err != nil {
		res.fail("invalid open-loop run: %v", err)
	}
	if len(overhead) < int(20*o.seconds) {
		return nil, fmt.Errorf("only %d served probes; raise -seconds", len(overhead))
	}
	done := float64(len(overhead) + run.fixed)
	res.metrics["ns_per_req"] = median(overhead)
	res.metrics["p90_ns_per_req"] = quantile(overhead, 0.9)
	res.metrics["allocs_per_req"] = float64(run.allocs) / done
	res.metrics["bytes_per_req"] = float64(run.bytes) / done
	res.metrics["peak_rss_mb"] = run.peakRSS
	res.detail["served_probes"] = len(overhead)
	res.detail["background"] = run.gen.n.Load()
	if spread, err := relSpread(overhead); err == nil {
		res.detail["ns_per_req_sample_spread"] = spread
	}
	return res, nil
}

// validRun applies the open-loop hygiene bounds to the fixed-rate phase.
func validRun(run *qosdRun, lag []float64) error {
	if p90 := quantile(lag, 0.9); p90 > float64(maxLoadgenLag) {
		return fmt.Errorf("generator p90 lag %v above %v", time.Duration(p90), maxLoadgenLag)
	}
	if run.backlogNote != "" {
		return fmt.Errorf("%s", run.backlogNote)
	}
	return nil
}
