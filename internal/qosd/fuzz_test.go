package qosd

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"hybridqos/internal/admission"
	"hybridqos/internal/faults"
	"hybridqos/internal/telemetry"
)

// fuzzConfig is a small mixed push/pull daemon whose admission refuses in
// every way: class 1 has a pending quota, class 2 a token bucket, and the
// shedder trips at a dozen requests in flight. Spans are on, so refusals
// and drains exercise the span paths too.
func fuzzConfig() Config {
	return Config{
		Catalog:      CatalogConfig{D: 20, Theta: 0.8, MinLen: 1, MaxLen: 3, Seed: 3},
		ClassWeights: []float64{4, 2, 1},
		Cutoff:       5,
		PullPolicy:   "priority",
		UnitMillis:   1,
		Keys:         map[string]int{"bronze": 2, "gold": 0, "silver": 1},
		Admission: AdmissionConfig{
			Classes:         []admission.ClassConfig{{}, {MaxPending: 4}, {Rate: 0.5, Burst: 2}},
			DefaultDeadline: fuzzDeadline,
			Shed:            &faults.ShedConfig{High: 12, Low: 6, MaxShedClasses: 2},
		},
		Spans: &SpansConfig{Rate: 0.5, Buffer: 16, Seed: 1},
	}
}

// fuzzDeadline is fuzzConfig's delay budget for every class.
const fuzzDeadline = 30

// The operations FuzzDaemon decodes, one per input byte (op % fuzzOps).
const (
	fuzzServe     = iota // Serve: item, class and deadline bytes follow
	fuzzUnknown          // /request with an unknown API key
	fuzzMalformed        // /request with a malformed body: body byte follows
	fuzzScrape           // /metrics
	fuzzStall            // RunUntil now + byte/4 units: byte follows
	fuzzDrain            // Drain
	fuzzOps
)

// malformedBodies are /request bodies ParseRequest refuses.
var malformedBodies = []string{``, `nope`, `{"item":`, `{"item":1.5}`, `{"item":1,"bogus":2}`, `{"item":1} {}`, `[1]`}

// fuzzAnswer is one Serve call's record and what respond told it.
type fuzzAnswer struct {
	class     int
	at        float64 // Serve's clock time
	budget    float64 // the delay budget the request was admitted with
	calls     int     // respond calls
	sync      bool    // answered before Serve returned
	submitted bool    // reached core.Server.Submit
	status    int
	resp      Response
	answerAt  float64
}

// FuzzDaemon drives a daemon on a virtual clock, with the inline exec, by
// a sequence of operations decoded from the input: Serve with items in
// [-1, D+1], every class and deadline_in 0, 1e-9 or a normal budget;
// unknown-key and malformed /requests and /metrics scrapes through the
// Handler; Drain, and Serve after it; and clock stalls past deadlines. It
// checks that nothing panics, that every respond fires exactly once —
// refusals before Serve returns, admitted requests by their deadline —
// with the class passed in and a status its outcome agrees with, and
// that the collector's final snapshot, which /metrics renders, tallies to
// the answers given.
func FuzzDaemon(f *testing.F) {
	// Serve op bytes: fuzzServe, item+1 (0 → item -1), class, deadline
	// (0: none, 1: 1e-9, else a normal budget).
	serve := func(item, class, deadline byte) []byte { return []byte{fuzzServe, item + 1, class, deadline} }
	cat := func(parts ...[]byte) []byte {
		var b []byte
		for _, p := range parts {
			b = append(b, p...)
		}
		return b
	}
	stall := func(units byte) []byte { return []byte{fuzzStall, 4 * units} }
	f.Add([]byte{})
	f.Add(cat(serve(1, 0, 0), serve(7, 1, 0), serve(15, 2, 0), stall(5), []byte{fuzzScrape}))
	// Mid-stream drain: admitted requests outlive it, later ones are 503s.
	f.Add(cat(serve(2, 0, 0), serve(12, 1, 8), serve(18, 0, 0), []byte{fuzzDrain}, serve(3, 1, 0),
		[]byte{fuzzUnknown, fuzzScrape}, stall(2), serve(4, 2, 0), stall(40), []byte{fuzzScrape, fuzzMalformed, 1}))
	// A stall past every deadline, with 1e-9 budgets among normal ones.
	f.Add(cat(serve(9, 0, 1), serve(10, 1, 1), serve(11, 2, 5), serve(19, 0, 2), stall(60), serve(1, 0, 1), stall(1)))
	f.Add(cat([]byte{fuzzUnknown, fuzzScrape, fuzzUnknown, fuzzUnknown, fuzzScrape}, serve(3, 0, 0), stall(3)))
	f.Add([]byte{fuzzMalformed, 0, fuzzMalformed, 1, fuzzMalformed, 2, fuzzMalformed, 3, fuzzMalformed, 4, fuzzMalformed, 5, fuzzMalformed, 6})
	// Out-of-catalog items: -1, 0 and D+1.
	f.Add(cat(serve(255, 0, 0), serve(0, 1, 0), serve(21, 2, 0), serve(20, 2, 0), stall(4)))
	// Overload: every class at once, so quota, rate limit and shedder all refuse.
	var overload []byte
	for i := byte(0); i < 40; i++ {
		overload = append(overload, serve(6+i%15, i%3, i)...)
	}
	f.Add(cat(overload, stall(10), overload, stall(50)))
	// Drain with nothing pending completes at once: later handler calls see a drained daemon.
	f.Add(cat(serve(5, 0, 0), stall(20), []byte{fuzzDrain, fuzzDrain, fuzzUnknown, fuzzScrape, fuzzMalformed, 2}, serve(5, 1, 0)))

	f.Fuzz(func(t *testing.T, data []byte) {
		cfg := fuzzConfig()
		d, v := inlineDaemon(t, cfg)
		h := d.Handler()
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}

		var answers []*fuzzAnswer
		drainCalled, drained, unauthorized := false, 0, 0
		for ops := 0; len(data) > 0 && ops < 512; ops++ {
			switch next() % fuzzOps {
			case fuzzServe:
				item := int(next())%(cfg.Catalog.D+3) - 1
				class := int(next()) % len(cfg.ClassWeights)
				req := Request{Item: item}
				switch b := next(); b % 3 {
				case 1:
					req.DeadlineIn = 1e-9
				case 2:
					req.DeadlineIn = 0.5 + float64(b/3)/2
				}
				a := &fuzzAnswer{class: class, at: v.Now(), budget: fuzzDeadline}
				if req.DeadlineIn > 0 && req.DeadlineIn < a.budget {
					a.budget = req.DeadlineIn
				}
				a.submitted = !d.srv.Draining() && item >= 1 && item <= cfg.Catalog.D
				answers = append(answers, a)
				d.Serve(req, class, func(status int, resp Response) {
					a.calls++
					a.status, a.resp, a.answerAt = status, resp, v.Now()
				})
				a.sync = a.calls > 0
			case fuzzUnknown:
				want := http.StatusUnauthorized
				if d.state.Load() == stateDrained {
					want = http.StatusServiceUnavailable
				}
				req := httptest.NewRequest(http.MethodPost, "/request", strings.NewReader(`{"item":1}`))
				req.Header.Set("X-API-Key", "intruder")
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				if rec.Code != want {
					t.Fatalf("unknown key answered %d, want %d: %q", rec.Code, want, rec.Body)
				}
				if rec.Code == http.StatusUnauthorized {
					unauthorized++
				}
			case fuzzMalformed:
				body := malformedBodies[int(next())%len(malformedBodies)]
				want := http.StatusBadRequest
				if d.state.Load() == stateDrained {
					want = http.StatusServiceUnavailable
				}
				req := httptest.NewRequest(http.MethodPost, "/request", strings.NewReader(body))
				req.Header.Set("X-API-Key", "gold")
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				if rec.Code != want {
					t.Fatalf("body %q answered %d, want %d: %q", body, rec.Code, want, rec.Body)
				}
			case fuzzScrape:
				want := http.StatusOK
				if d.state.Load() == stateDrained {
					want = http.StatusServiceUnavailable
				}
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
				if rec.Code != want || want == http.StatusOK && !strings.HasPrefix(rec.Body.String(), "# TYPE hybridqos_sim_time gauge\n") {
					t.Fatalf("scrape answered %d, want %d: %q", rec.Code, want, rec.Body)
				}
			case fuzzStall:
				v.RunUntil(v.Now() + float64(next())/4)
			case fuzzDrain:
				drainCalled = true
				d.Drain(func() { drained++ })
			}
		}
		// Past every deadline: each admitted request has been answered.
		v.RunUntil(v.Now() + 2*fuzzDeadline)

		if d.srv.Pending() != 0 {
			t.Fatalf("%d requests pending past every deadline", d.srv.Pending())
		}
		wantDrained := 0
		if drainCalled {
			wantDrained = 1
		}
		if drained != wantDrained {
			t.Fatalf("onDrained fired %d times, want %d", drained, wantDrained)
		}

		n := len(cfg.ClassWeights)
		served, expired, draining := make([]int64, n), make([]int64, n), make([]int64, n)
		arrivals := make([]int64, n)
		refused := map[string][]int64{
			admission.ShedOverload.String():  make([]int64, n),
			admission.RateLimited.String():   make([]int64, n),
			admission.QuotaExceeded.String(): make([]int64, n),
		}
		for i, a := range answers {
			if a.calls != 1 {
				t.Fatalf("request %d answered %d times", i, a.calls)
			}
			if a.resp.Class != a.class {
				t.Fatalf("request %d of class %d answered with class %d", i, a.class, a.resp.Class)
			}
			if a.submitted {
				arrivals[a.class]++
			}
			async := false
			switch a.status {
			case http.StatusOK:
				async = a.resp.Outcome == "served"
				served[a.class]++
			case http.StatusGatewayTimeout:
				async = a.resp.Outcome == "expired"
				expired[a.class]++
			case http.StatusTooManyRequests:
				if counts, ok := refused[a.resp.Outcome]; ok && a.submitted {
					counts[a.class]++
				} else {
					t.Fatalf("request %d answered 429 %q", i, a.resp.Outcome)
				}
			case http.StatusBadRequest:
				if a.resp.Outcome != "bad_item" || a.submitted {
					t.Fatalf("request %d answered 400 %q", i, a.resp.Outcome)
				}
			case http.StatusServiceUnavailable:
				if a.resp.Outcome != "draining" || a.submitted {
					t.Fatalf("request %d answered 503 %q", i, a.resp.Outcome)
				}
				draining[a.class]++
			default:
				t.Fatalf("request %d answered status %d %+v", i, a.status, a.resp)
			}
			if s := a.status; (s == http.StatusOK || s == http.StatusGatewayTimeout) != async {
				t.Fatalf("request %d answered %d %q", i, s, a.resp.Outcome)
			}
			if async {
				if a.sync || !a.submitted {
					t.Fatalf("request %d answered %q before Serve returned", i, a.resp.Outcome)
				}
				if a.answerAt > a.at+a.budget {
					t.Fatalf("request %d answered at %g, past its deadline %g", i, a.answerAt, a.at+a.budget)
				}
			} else if !a.sync {
				t.Fatalf("refusal %d (%q) answered after Serve returned", i, a.resp.Outcome)
			}
		}

		snap := d.tele.TakeSnapshot(v.Now())
		counter := snap.Counter
		for c := 0; c < n; c++ {
			for _, m := range []struct {
				name      string
				got, want int64
			}{
				{"served_push+served_pull", counter(telemetry.MetricServedPush, c) + counter(telemetry.MetricServedPull, c), served[c]},
				{telemetry.MetricExpired, counter(telemetry.MetricExpired, c), expired[c]},
				{telemetry.MetricShed, counter(telemetry.MetricShed, c), refused[admission.ShedOverload.String()][c]},
				{telemetry.MetricRateLimited, counter(telemetry.MetricRateLimited, c), refused[admission.RateLimited.String()][c]},
				{telemetry.MetricQuotaExceeded, counter(telemetry.MetricQuotaExceeded, c), refused[admission.QuotaExceeded.String()][c]},
				{telemetry.MetricRejected, counter(telemetry.MetricRejected, c), draining[c]},
				{telemetry.MetricArrivals, counter(telemetry.MetricArrivals, c), arrivals[c]},
			} {
				if m.got != m.want {
					t.Errorf("class %d: %s = %d, answers say %d", c, m.name, m.got, m.want)
				}
			}
		}
		if got := counter(telemetry.MetricRejected, telemetry.ClassNone); got != int64(unauthorized) {
			t.Errorf("rejected{class=none} = %d after %d unknown-key requests", got, unauthorized)
		}
	})
}
