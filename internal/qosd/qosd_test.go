package qosd

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"

	"hybridqos/internal/admission"
	"hybridqos/internal/clock"
	"hybridqos/internal/faults"
	"hybridqos/internal/span"
	"hybridqos/internal/telemetry"
	"hybridqos/internal/trace"
)

// testConfig is a small pull-only daemon: unit-length items, three classes
// confined to disjoint hundred-item bands by the load generators, shedding
// enabled. Mirrors the core serving overload scenario so daemon-level
// results are comparable.
func testConfig() Config {
	return Config{
		Catalog:      CatalogConfig{D: 300, Theta: 0.5, MinLen: 1, MaxLen: 1, Seed: 7},
		ClassWeights: []float64{4, 2, 1},
		PullPolicy:   "priority",
		UnitMillis:   1,
		Keys:         map[string]int{"bronze": 2, "gold": 0, "silver": 1},
		Admission: AdmissionConfig{
			DefaultDeadline: 30,
			Shed:            &faults.ShedConfig{High: 30, Low: 15, MaxShedClasses: 2},
		},
	}
}

// inlineDaemon builds a Daemon on a fresh virtual clock with exec calling
// inline — correct single-threaded, where the test owns the clock goroutine.
func inlineDaemon(t *testing.T, cfg Config) (*Daemon, *clock.Virtual) {
	t.Helper()
	v := clock.NewVirtual()
	d, err := New(cfg, v, func(f func()) { f() })
	if err != nil {
		t.Fatal(err)
	}
	d.Start()
	return d, v
}

func TestParseConfigRoundTrip(t *testing.T) {
	data, err := json.Marshal(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := ParseConfig(data)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Catalog.D != 300 || len(cfg.ClassWeights) != 3 || cfg.Keys["gold"] != 0 {
		t.Fatalf("round trip mangled config: %+v", cfg)
	}
	if cfg.defaultClass() != -1 {
		t.Errorf("omitted default_class resolved to %d, want -1", cfg.defaultClass())
	}
}

func TestParseConfigErrors(t *testing.T) {
	mutate := func(f func(*Config)) []byte {
		cfg := testConfig()
		f(&cfg)
		data, err := json.Marshal(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	cases := []struct {
		name string
		data []byte
	}{
		{"unknown field", []byte(`{"catalog":{"d":10,"theta":0.5,"min_len":1,"max_len":1},"class_weights":[2,1],"unit_ms":1,"admission":{"default_deadline":5},"bogus":1}`)},
		{"trailing data", append(mutate(func(*Config) {}), []byte(" {}")...)},
		{"trailing brace", append(mutate(func(*Config) {}), '}')},
		{"trailing bracket", append(mutate(func(*Config) {}), []byte(" ]")...)},
		{"not json", []byte("not json")},
		{"no classes", mutate(func(c *Config) { c.ClassWeights = nil })},
		{"non-decreasing weights", mutate(func(c *Config) { c.ClassWeights = []float64{1, 1, 2} })},
		{"cutoff out of range", mutate(func(c *Config) { c.Cutoff = 301 })},
		{"zero unit", mutate(func(c *Config) { c.UnitMillis = 0 })},
		{"key class out of range", mutate(func(c *Config) { c.Keys = map[string]int{"k": 3} })},
		{"empty key", mutate(func(c *Config) { c.Keys = map[string]int{"": 0} })},
		{"default class out of range", mutate(func(c *Config) { dc := 3; c.DefaultClass = &dc })},
		{"too many admission classes", mutate(func(c *Config) { c.Admission.Classes = make([]admission.ClassConfig, 4) })},
		{"no deadline", mutate(func(c *Config) { c.Admission.DefaultDeadline = 0 })},
		{"span rate above 1", mutate(func(c *Config) { c.Spans = &SpansConfig{Rate: 1.5} })},
		{"negative span rate", mutate(func(c *Config) { c.Spans = &SpansConfig{Rate: -0.5} })},
		{"negative span buffer", mutate(func(c *Config) { c.Spans = &SpansConfig{Rate: 0.5, Buffer: -1} })},
	}
	// The unbuildable configs differ from a valid one in one field only.
	if _, err := ParseConfig(withField(`"cutoff":0`)); err != nil {
		t.Fatalf("base of the unbuildable configs rejected: %v", err)
	}
	for _, u := range unbuildableConfigs {
		cases = append(cases, struct {
			name string
			data []byte
		}{u.name, withField(u.field)})
	}
	for _, tc := range cases {
		if _, err := ParseConfig(tc.data); err == nil {
			t.Errorf("%s: ParseConfig accepted %s", tc.name, tc.data)
		}
	}
}

func TestParseRequestErrors(t *testing.T) {
	for _, tc := range []struct {
		name string
		data string
	}{
		{"empty", ``},
		{"unknown field", `{"item":1,"extra":true}`},
		{"trailing data", `{"item":1} {"item":2}`},
		{"trailing brace", `{"item":5}}`},
		{"trailing bracket", `{"item":5} ]`},
		{"trailing garbage", `{"item":5}x`},
		{"zero item", `{"item":0}`},
		{"negative item", `{"item":-4}`},
		{"negative deadline", `{"item":1,"deadline_in":-1}`},
		{"string item", `{"item":"five"}`},
	} {
		if _, err := ParseRequest([]byte(tc.data)); err == nil {
			t.Errorf("%s: ParseRequest accepted %q", tc.name, tc.data)
		}
	}
	req, err := ParseRequest([]byte(`{"item":7,"deadline_in":2.5}`))
	if err != nil {
		t.Fatal(err)
	}
	if req.Item != 7 || req.DeadlineIn != 2.5 {
		t.Fatalf("parsed %+v", req)
	}
}

// unbuildableConfigs each set one cell field to a value only a constructor
// rejects; ParseConfig must refuse them, since New cannot build them.
var unbuildableConfigs = []struct{ name, field string }{
	{"unknown pull policy", `"pull_policy":"bogus"`},
	{"alpha outside [0,1]", `"alpha":2`},
	{"negative push disks", `"push_disks":-3`},
}

// withField splices one top-level field into a minimal valid config.
func withField(field string) []byte {
	return []byte(`{"catalog":{"d":10,"theta":0.5,"min_len":1,"max_len":1},"class_weights":[2,1],"unit_ms":1,"admission":{"default_deadline":5},` + field + `}`)
}

// FuzzParseConfig checks that every config ParseConfig accepts is one New
// builds on a virtual clock.
func FuzzParseConfig(f *testing.F) {
	seed, err := json.Marshal(testConfig())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"catalog":{"d":1,"theta":0.5,"min_len":1,"max_len":1},"class_weights":[1],"unit_ms":1,"admission":{"default_deadline":1}}`))
	f.Add([]byte(`{"class_weights":[1e308,1]}`))
	f.Add([]byte(`null`))
	for _, u := range unbuildableConfigs {
		f.Add(withField(u.field))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// Building a config costs memory in proportion to its catalog and
		// span ring; skip sizes the fuzzer would only spend memory on.
		var size struct {
			Catalog struct {
				D int `json:"d"`
			} `json:"catalog"`
			Spans struct {
				Buffer int `json:"buffer"`
			} `json:"spans"`
		}
		json.NewDecoder(bytes.NewReader(data)).Decode(&size) //nolint:errcheck // ParseConfig reports decode errors
		if size.Catalog.D > 1<<10 || size.Spans.Buffer > 1<<10 {
			t.Skip("config too large to build")
		}
		cfg, err := ParseConfig(data)
		if err != nil {
			return
		}
		if _, err := New(cfg, clock.NewVirtual(), func(f func()) { f() }); err != nil {
			t.Fatalf("ParseConfig accepted a config New rejects: %v", err)
		}
	})
}

// p95 returns the 95th-percentile of xs (nearest-rank).
func p95(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	idx := (len(s)*95 + 99) / 100
	if idx > 0 {
		idx--
	}
	return s[idx]
}

// TestDaemonOverloadDegradesByClass replays the 2x-overload chaos scenario
// through the daemon's Serve path (the same stack HTTP requests traverse,
// minus goroutine plumbing) on the virtual clock: degradation must be
// class-ordered on both p95 effective delay and refusal rate.
func TestDaemonOverloadDegradesByClass(t *testing.T) {
	const (
		numClasses = 3
		deadline   = 30.0
		horizon    = 1000.0
	)
	d, v := inlineDaemon(t, testConfig())
	type classStats struct {
		submitted, refused, responses int
		effective                     []float64
	}
	stats := make([]classStats, numClasses)
	for k := 0; 0.5*float64(k) < horizon; k++ {
		class := k % numClasses
		item := class*100 + (k/numClasses)%100 + 1
		v.At(0.5*float64(k), func() {
			st := &stats[class]
			st.submitted++
			d.Serve(Request{Item: item}, class, func(status int, resp Response) {
				st.responses++
				switch status {
				case http.StatusOK:
					st.effective = append(st.effective, resp.DelayUnits)
				case http.StatusGatewayTimeout:
					st.effective = append(st.effective, deadline)
				case http.StatusTooManyRequests:
					st.refused++
				default:
					t.Errorf("class %d: unexpected status %d (%+v)", class, status, resp)
				}
			})
		})
	}
	v.RunUntil(horizon + 2*deadline)

	totalRefused := 0
	for c := 0; c < numClasses; c++ {
		st := &stats[c]
		if st.responses != st.submitted {
			t.Fatalf("class %d: %d responses for %d requests", c, st.responses, st.submitted)
		}
		totalRefused += st.refused
	}
	if totalRefused == 0 {
		t.Fatal("2x overload produced no refusals; the scenario is not stressing admission")
	}
	for c := 0; c+1 < numClasses; c++ {
		hi, lo := &stats[c], &stats[c+1]
		if hiP95, loP95 := p95(hi.effective), p95(lo.effective); hiP95 > loP95 {
			t.Errorf("class %d p95 effective delay %g worse than class %d's %g", c, hiP95, c+1, loP95)
		}
		hiRate := float64(hi.refused) / float64(hi.submitted)
		loRate := float64(lo.refused) / float64(lo.submitted)
		if hiRate > loRate {
			t.Errorf("class %d refusal rate %g worse than class %d's %g", c, hiRate, c+1, loRate)
		}
	}
	if stats[0].refused != 0 {
		t.Errorf("class 0 refused %d times; the highest class is never shed", stats[0].refused)
	}
	// The shed path must be visible in telemetry.
	snap := d.Telemetry().TakeSnapshot(v.Now())
	shed := int64(0)
	for c := 0; c < numClasses; c++ {
		shed += snap.Counter(telemetry.MetricShed, c)
	}
	if shed == 0 {
		t.Error("no shed counters recorded under 2x overload")
	}
}

// TestDaemonDeadlineStorm: a storm of near-expired requests answers every
// client 504 by its deadline and never reports a success afterwards.
func TestDaemonDeadlineStorm(t *testing.T) {
	d, v := inlineDaemon(t, testConfig())
	const n = 50
	responses := 0
	for i := 0; i < n; i++ {
		item := i + 1
		d.Serve(Request{Item: item, DeadlineIn: 0.5}, i%3, func(status int, resp Response) {
			responses++
			now := v.Now()
			if status == http.StatusOK && now > 0.5 {
				t.Errorf("request %d: served at t=%g, past its 0.5 deadline", item, now)
			}
			if status == http.StatusGatewayTimeout && now > 0.5 {
				t.Errorf("request %d: expiry reported at t=%g, after the deadline", item, now)
			}
		})
	}
	v.RunUntil(10)
	if responses != n {
		t.Fatalf("%d of %d storm requests answered", responses, n)
	}
}

// TestDaemonServeRefusals covers the synchronous refusal paths of Serve.
func TestDaemonServeRefusals(t *testing.T) {
	d, v := inlineDaemon(t, testConfig())
	gotStatus, gotOutcome := 0, ""
	record := func(status int, resp Response) { gotStatus, gotOutcome = status, resp.Outcome }

	// Both sides of [1, D]: Serve takes requests that did not come through
	// ParseRequest, so it must not hand the engine an item it panics on.
	for _, item := range []int{9999, 0, -1} {
		gotStatus, gotOutcome = 0, ""
		d.Serve(Request{Item: item}, 0, record)
		if gotStatus != http.StatusBadRequest || gotOutcome != "bad_item" {
			t.Errorf("item %d out of range answered %d %q", item, gotStatus, gotOutcome)
		}
	}

	d.Drain(nil)
	d.Serve(Request{Item: 1}, 0, record)
	if gotStatus != http.StatusServiceUnavailable || gotOutcome != "draining" {
		t.Errorf("Serve while draining answered %d %q", gotStatus, gotOutcome)
	}
	v.RunUntil(100)
}

// TestDaemonDrain drains mid-storm: every admitted request is answered by
// its deadline, new requests get 503, onDrained fires exactly once, and the
// draining gauge flips in telemetry.
func TestDaemonDrain(t *testing.T) {
	const deadline = 30.0
	d, v := inlineDaemon(t, testConfig())
	submitted, refused, answered := 0, 0, 0
	for k := 0; k < 200; k++ {
		item := k%100 + 1
		class := k % 3
		v.At(0.02*float64(k), func() {
			submitted++
			d.Serve(Request{Item: item}, class, func(status int, resp Response) {
				switch status {
				case http.StatusOK, http.StatusGatewayTimeout:
					answered++
					if v.Now() > 4+deadline {
						t.Errorf("request resolved at t=%g, past drain deadline bound", v.Now())
					}
				case http.StatusTooManyRequests, http.StatusServiceUnavailable:
					refused++
				default:
					t.Errorf("unexpected status %d", status)
				}
			})
		})
	}
	drainedAt, drains := -1.0, 0
	v.At(4, func() {
		d.Drain(func() {
			drains++
			drainedAt = v.Now()
		})
	})
	v.RunUntil(200)
	if drains != 1 {
		t.Fatalf("onDrained fired %d times", drains)
	}
	if answered != submitted-refused {
		t.Fatalf("%d answers for %d admitted requests", answered, submitted-refused)
	}
	if drainedAt > 4+deadline {
		t.Errorf("drain completed at t=%g, beyond the deadline bound %g", drainedAt, 4+deadline)
	}
	snap := d.Telemetry().TakeSnapshot(v.Now())
	if got := snap.Gauge(telemetry.MetricDraining, telemetry.ClassNone); got != 1 {
		t.Errorf("draining gauge = %g, want 1", got)
	}
}

// TestDaemonHTTPStateShortCircuits exercises the handler endpoints that can
// answer without the clock goroutine, plus /metrics through inline exec.
func TestDaemonHTTPStateShortCircuits(t *testing.T) {
	v := clock.NewVirtual()
	d, err := New(testConfig(), v, func(f func()) { f() })
	if err != nil {
		t.Fatal(err)
	}
	h := d.Handler()
	get := func(path string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		return rec
	}
	post := func(path, key, body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
		if key != "" {
			req.Header.Set("X-API-Key", key)
		}
		h.ServeHTTP(rec, req)
		return rec
	}

	// Before Start: healthz is alive, readyz and /request refuse.
	if rec := get("/healthz"); rec.Code != http.StatusOK {
		t.Errorf("healthz before start: %d", rec.Code)
	}
	if rec := get("/readyz"); rec.Code != http.StatusServiceUnavailable {
		t.Errorf("readyz before start: %d", rec.Code)
	}
	if rec := post("/request", "gold", `{"item":1}`); rec.Code != http.StatusServiceUnavailable {
		t.Errorf("request before start: %d", rec.Code)
	}

	d.Start()
	if rec := get("/readyz"); rec.Code != http.StatusOK {
		t.Errorf("readyz after start: %d", rec.Code)
	}
	if rec := get("/request"); rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /request: %d", rec.Code)
	}
	if rec := post("/request", "intruder", `{"item":1}`); rec.Code != http.StatusUnauthorized {
		t.Errorf("unknown key: %d", rec.Code)
	}
	if rec := post("/request", "gold", `{"item":0}`); rec.Code != http.StatusBadRequest {
		t.Errorf("bad item: %d", rec.Code)
	}
	if rec := post("/request", "gold", `not json`); rec.Code != http.StatusBadRequest {
		t.Errorf("bad body: %d", rec.Code)
	}
	// Metrics are lazily created: the 401 above bumped rejected_total.
	if rec := get("/metrics"); rec.Code != http.StatusOK ||
		!strings.Contains(rec.Body.String(), "hybridqos_rejected_total 1") {
		t.Errorf("metrics: %d, body %q", rec.Code, rec.Body.String())
	}

	d.Drain(nil)
	v.RunUntil(100)
	if rec := get("/readyz"); rec.Code != http.StatusServiceUnavailable {
		t.Errorf("readyz after drain: %d", rec.Code)
	}
	if rec := post("/request", "gold", `{"item":1}`); rec.Code != http.StatusServiceUnavailable {
		t.Errorf("request after drain: %d", rec.Code)
	}
	if rec := get("/metrics"); rec.Code != http.StatusServiceUnavailable {
		t.Errorf("metrics after drain: %d", rec.Code)
	}
}

// TestDaemonRequestBodyLimits: a /request body one byte over the 64 KiB
// cap is answered 413, while a small malformed body stays a 400.
func TestDaemonRequestBodyLimits(t *testing.T) {
	d, _ := inlineDaemon(t, testConfig())
	post := func(body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/request", strings.NewReader(body))
		req.Header.Set("X-API-Key", "gold")
		d.Handler().ServeHTTP(rec, req)
		return rec
	}
	if rec := post(strings.Repeat(" ", 1<<16+1)); rec.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("64 KiB+1 body: %d, want 413", rec.Code)
	}
	if rec := post(`{"item":`); rec.Code != http.StatusBadRequest {
		t.Errorf("malformed body: %d, want 400", rec.Code)
	}
}

// TestDaemonSpans: with spans enabled, served, expired and drain-refused
// requests all land in the engine's span ring with verified segment tiling
// — the drain-time refusal carrying the "draining" terminal taxonomy — and
// /debug/spans serves them as JSON.
func TestDaemonSpans(t *testing.T) {
	cfg := testConfig()
	cfg.Spans = &SpansConfig{Rate: 1, Buffer: 16}
	d, v := inlineDaemon(t, cfg)

	d.Serve(Request{Item: 5}, 0, func(int, Response) {})
	d.Serve(Request{Item: 250, DeadlineIn: 0.5}, 2, func(int, Response) {})
	v.RunUntil(5)

	// The span ring is live over HTTP before drain.
	rec := httptest.NewRecorder()
	d.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/spans", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/debug/spans: %d", rec.Code)
	}
	var served []span.Span
	if err := json.Unmarshal(rec.Body.Bytes(), &served); err != nil {
		t.Fatalf("/debug/spans body: %v\n%s", err, rec.Body.String())
	}
	if len(served) != 2 {
		t.Fatalf("/debug/spans returned %d spans, want 2:\n%s", len(served), rec.Body.String())
	}

	v.At(6, func() {
		d.Drain(nil)
		d.Serve(Request{Item: 7}, 1, func(status int, resp Response) {
			if status != http.StatusServiceUnavailable || resp.Outcome != "draining" {
				t.Errorf("drain-time request answered %d %q", status, resp.Outcome)
			}
		})
	})
	v.RunUntil(100)

	spans := d.Spans()
	if err := span.Verify(spans); err != nil {
		t.Fatal(err)
	}
	outcomes := map[trace.Reason]int{}
	for _, sp := range spans {
		outcomes[sp.Outcome]++
	}
	if outcomes[trace.EndServed] != 1 || outcomes[trace.EndExpired] != 1 || outcomes[trace.EndDraining] != 1 {
		t.Fatalf("span outcomes %v, want one each of served/expired/draining", outcomes)
	}
	for _, sp := range spans {
		if sp.Outcome != trace.EndServed {
			continue
		}
		if len(sp.Segments) == 0 || sp.Segments[len(sp.Segments)-1].Kind != span.SegService {
			t.Fatalf("served span lacks a service segment: %+v", sp)
		}
		if sp.Item != 5 || sp.Verdict != trace.VerdictPull {
			t.Fatalf("served span misattributed: %+v", sp)
		}
	}
}

// TestDaemonRefusedPushSpanVerdict: a push-band request (item ≤ K) that
// admission refuses keeps its routing verdict in /debug/spans — "push",
// beside the pull-band refusal's "pull" — with the refusal taxonomy as its
// outcome.
func TestDaemonRefusedPushSpanVerdict(t *testing.T) {
	cfg := testConfig()
	cfg.Cutoff = 10
	cfg.Admission.Classes = []admission.ClassConfig{{MaxPending: 1}}
	cfg.Spans = &SpansConfig{Rate: 1}
	d, v := inlineDaemon(t, cfg)
	d.Serve(Request{Item: 3}, 0, func(int, Response) {}) // admitted push waiter
	refused := map[int]string{}
	for _, item := range []int{4, 200} { // push band, pull band
		d.Serve(Request{Item: item}, 0, func(status int, resp Response) {
			refused[item] = resp.Outcome
		})
	}
	v.RunUntil(100)
	if refused[4] != "quota_exceeded" || refused[200] != "quota_exceeded" {
		t.Fatalf("refusals answered %v, want quota_exceeded for items 4 and 200", refused)
	}
	verdicts := map[int]trace.Reason{}
	for _, sp := range d.Spans() {
		if sp.Outcome == trace.EndRejected {
			verdicts[sp.Item] = sp.Verdict
		}
	}
	if verdicts[4] != trace.VerdictPush || verdicts[200] != trace.VerdictPull {
		t.Fatalf("refused span verdicts %v, want item 4 push and item 200 pull", verdicts)
	}
}

// TestDaemonDefaultClass: unknown keys fall through to the configured
// default class instead of 401.
func TestDaemonDefaultClass(t *testing.T) {
	cfg := testConfig()
	dc := 2
	cfg.DefaultClass = &dc
	v := clock.NewVirtual()
	d, err := New(cfg, v, func(f func()) { f() })
	if err != nil {
		t.Fatal(err)
	}
	if class, ok := d.classOf("intruder"); !ok || class != 2 {
		t.Errorf("classOf(unknown) = %d,%v; want 2,true", class, ok)
	}
	if class, ok := d.classOf("gold"); !ok || class != 0 {
		t.Errorf("classOf(gold) = %d,%v; want 0,true", class, ok)
	}
}
