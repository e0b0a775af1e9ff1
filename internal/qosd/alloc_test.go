package qosd

import (
	"net/http"
	"testing"
)

// discardWriter is an http.ResponseWriter that keeps one header map and
// drops the body, so the answer's and the scrape's allocations are
// measured without a recorder's own.
type discardWriter struct{ h http.Header }

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *discardWriter) WriteHeader(int)             {}

// TestServeAllocsPerRequestCeiling bounds this package's own allocations
// per /request, stage by stage: decoding the body, serving it on a virtual
// clock until the engine answers, and encoding the answer; and per /metrics
// scrape: the snapshot alone, and the whole handler. It is the
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
		// Measured 8: the json.Decoder with its read buffer and scanner
		// state, the bytes.Reader, the decoded Request and decode scratch.
		// Headroom 2, as encoding/json's internals vary between releases.
		{"ParseRequest", parse, 8 + 2},
		// Measured 1: the completion closure handed to Submit. Headroom 1.
		{"Serve", serve, 1 + 1},
		// Measured 0: the header value is shared and the body buffer
		// pooled. Headroom 1, for a pool emptied by a collection.
		{"writeResponse", encode, 0 + 1},
		// Measured 7: the Snapshot, its counter, gauge and histogram
		// sections, and the three classes' delay counts. Headroom 1.
		{"TakeSnapshot", snapshot, 7 + 1},
		// Measured 10: the snapshot's 7, the channel (two objects, as its
		// element is a pointer) and the closure that carry it off the
		// clock goroutine; rendering into the pooled buffer allocates
		// nothing. Headroom 2.
		{"handleMetrics", scrape, 10 + 2},
	} {
		t.Logf("%s: %.1f allocs per call (ceiling %g)", c.stage, c.got, c.ceiling)
		if c.got > c.ceiling {
			t.Errorf("%s allocates %.1f times per call, ceiling %g", c.stage, c.got, c.ceiling)
		}
	}
}
