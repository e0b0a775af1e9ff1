package qosd

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"hybridqos/internal/clock"
	"hybridqos/internal/telemetry"
)

// discardWriter is an http.ResponseWriter that keeps one header map and
// drops the body, so the answer's and the scrape's allocations are
// measured without a recorder's own.
type discardWriter struct{ h http.Header }

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *discardWriter) WriteHeader(int)             {}

// poolDropHeadroom is the allocations per request a pooled handler stage
// gains under the race detector (race_test.go sets it), 0 without it.
var poolDropHeadroom = 0.0

// TestServeAllocsPerRequestCeiling bounds this package's own allocations
// per /request, stage by stage: decoding the body, serving it on a virtual
// clock until the engine answers, encoding the answer, and the whole
// handler around them; and per /metrics scrape: the snapshot alone, and
// the whole handler. It is the
// serving analogue of the simulator's TestAllocsPerRequestCeiling; net/http's
// share of a live request is outside it. Each ceiling is the count measured
// with go1.24 on linux/amd64 plus the headroom stated beside it, so a new
// allocation per request in any stage fails here, with no timing noise.
func TestServeAllocsPerRequestCeiling(t *testing.T) {
	body := []byte(`{"item": 7, "deadline_in": 20}`)
	parse := testing.AllocsPerRun(200, func() {
		if _, err := ParseRequest(body); err != nil {
			t.Fatal(err)
		}
	})

	d, v := inlineDaemon(t, testConfig())
	answered, status := 0, 0
	respond := func(s int, _ Response) { answered, status = answered+1, s }
	serve := testing.AllocsPerRun(200, func() {
		d.Serve(Request{Item: 7}, 0, respond)
		v.RunUntil(v.Now() + 2)
	})
	if answered != 201 || status != http.StatusOK {
		t.Fatalf("%d of 201 requests answered, last status %d; want every one served", answered, status)
	}

	w := &discardWriter{h: http.Header{}}
	resp := Response{Outcome: "served", Class: 0, DelayUnits: 1.5, Push: false}
	encode := testing.AllocsPerRun(200, func() { writeResponse(w, http.StatusOK, resp) })

	// The whole /request handler on one prebuilt request, its body reader
	// rewound each run. exec runs the request on the clock, then advances
	// the clock until the engine has answered it.
	hv := clock.NewVirtual()
	var hd *Daemon
	hd, err := New(testConfig(), hv, func(f func()) {
		f()
		for hd.srv.Pending() > 0 {
			hv.RunUntil(hv.Now() + 1)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	hd.Start()
	rd := bytes.NewReader(nil)
	r := httptest.NewRequest(http.MethodPost, "/request", nil)
	r.Header.Set("X-API-Key", "gold")
	r.Body = io.NopCloser(rd)
	handle := testing.AllocsPerRun(200, func() {
		rd.Reset(body)
		hd.handleRequest(w, r)
	})
	snap := hd.Telemetry().TakeSnapshot(hv.Now())
	if got := snap.Counter(telemetry.MetricServedPush, 0) + snap.Counter(telemetry.MetricServedPull, 0); got != 201 {
		t.Fatalf("%d of 201 handled requests served", got)
	}

	// Scrape a registry holding every class's serving metrics.
	for class := 1; class < 3; class++ {
		d.Serve(Request{Item: 7}, class, respond)
	}
	v.RunUntil(v.Now() + 2)
	snapshot := testing.AllocsPerRun(200, func() { d.tele.TakeSnapshot(v.Now()) })
	scrape := testing.AllocsPerRun(200, func() { d.handleMetrics(w, nil) })

	for _, c := range []struct {
		stage        string
		got, ceiling float64
	}{
		// Measured 0: the parser reads the body in place, and a
		// deadline_in this short converts to a string on the stack. No
		// headroom: AllocsPerRun counts whole allocations per run.
		{"ParseRequest", parse, 0},
		// Measured 0: an admitted request's completion is respond
		// itself, held by the engine as a core.Done without boxing. No
		// headroom, as for ParseRequest.
		{"Serve", serve, 0},
		// Measured 0: the header value is shared and the body buffer
		// pooled. Headroom 1, for a pool emptied by a collection.
		{"writeResponse", encode, 0 + 1},
		// Measured 1: the http.MaxBytesReader wrapping the body; the
		// call state is pooled, the key lookup canonical, and the stages
		// above allocate nothing. Headroom 1, for a pool emptied by a
		// collection, plus poolDropHeadroom.
		{"handleRequest", handle, 1 + 1 + poolDropHeadroom},
		// Measured 5: the Snapshot, its counter, gauge and histogram
		// sections, and one buffer holding every class's delay counts.
		// Headroom 1.
		{"TakeSnapshot", snapshot, 5 + 1},
		// Measured 5: the snapshot's 5. The channel and closure that
		// carry it off the clock goroutine are pooled in a scrape, and
		// rendering into the pooled buffer allocates nothing. Headroom 2:
		// 1 as for TakeSnapshot, 1 for a pool emptied by a collection;
		// plus poolDropHeadroom for the two pools.
		{"handleMetrics", scrape, 5 + 2 + poolDropHeadroom},
	} {
		t.Logf("%s: %.1f allocs per call (ceiling %g)", c.stage, c.got, c.ceiling)
		if c.got > c.ceiling {
			t.Errorf("%s allocates %.1f times per call, ceiling %g", c.stage, c.got, c.ceiling)
		}
	}
}
