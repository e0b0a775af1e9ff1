package qosd

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"hybridqos/internal/admission"
	"hybridqos/internal/clock"
	"hybridqos/internal/httpserve"
	"hybridqos/internal/telemetry"
)

// TestDaemonWallHTTPEndToEnd runs the full serving stack — wall clock,
// Wall.Submit bridging, httpserve, real TCP — through the lifecycle
// cmd/qosd drives: start, serve, survive a slow client, drain, shut down.
func TestDaemonWallHTTPEndToEnd(t *testing.T) {
	cfg := testConfig()
	// Generous deadline (in units = ms): a stalled CI machine must not turn
	// a served request into an expiry.
	cfg.Admission.DefaultDeadline = 5000

	wall, err := clock.NewWall(time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	d, err := New(cfg, wall, wall.Submit)
	if err != nil {
		t.Fatal(err)
	}
	go wall.Run()
	d.Start()
	srv, err := httpserve.Start("127.0.0.1:0", d.Handler())
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + srv.Addr.String()

	// Start is asynchronous (it rides the clock loop): wait for readiness.
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("daemon never became ready")
		}
		time.Sleep(5 * time.Millisecond)
	}

	post := func(key, body string) (int, Response) {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, base+"/request", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-API-Key", key)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out Response
		if resp.Header.Get("Content-Type") == "application/json" {
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				t.Fatalf("decoding response: %v", err)
			}
		}
		return resp.StatusCode, out
	}

	// A slow client: sends a valid admitted request, then never reads the
	// response. The engine's answer is buffered; nothing downstream may
	// block on this connection.
	slow, err := net.Dial("tcp", srv.Addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer slow.Close()
	slowBody := `{"item":2}`
	fmt.Fprintf(slow, "POST /request HTTP/1.1\r\nHost: qosd\r\nX-API-Key: silver\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s", len(slowBody), slowBody)

	// Normal requests complete while the slow client sits on its socket.
	if status, resp := post("gold", `{"item":1}`); status != http.StatusOK || resp.Outcome != "served" || resp.Class != 0 {
		t.Fatalf("served request answered %d %+v", status, resp)
	}
	if status, _ := post("intruder", `{"item":1}`); status != http.StatusUnauthorized {
		t.Fatalf("unknown key answered %d", status)
	}
	if status, resp := post("bronze", `{"item":9999}`); status != http.StatusBadRequest || resp.Outcome != "bad_item" {
		t.Fatalf("out-of-catalog item answered %d %+v", status, resp)
	}

	// Metrics over live HTTP: the served request above must be visible.
	mresp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if mresp.StatusCode != http.StatusOK || !strings.Contains(string(mbody), "hybridqos_arrivals_total") {
		t.Fatalf("metrics: %d, body %q", mresp.StatusCode, mbody)
	}

	// Graceful drain, as cmd/qosd runs it on SIGTERM.
	drained := make(chan struct{})
	d.Drain(func() { close(drained) })
	select {
	case <-drained:
	case <-time.After(10 * time.Second):
		t.Fatal("drain did not complete")
	}
	if status, _ := post("gold", `{"item":1}`); status != http.StatusServiceUnavailable {
		t.Fatalf("request after drain answered %d", status)
	}
	resp, err := http.Get(base + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz after drain: %d", resp.StatusCode)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	wall.Stop()
	select {
	case <-wall.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("wall clock loop did not stop")
	}
}

// TestDaemonWallConcurrentScrapes scrapes /metrics from several goroutines
// while requests are served on a Wall clock. Scrapes render on their own
// handler goroutines from snapshots taken on the clock loop, so under
// -race this checks that no rendering reads engine state, and that
// concurrent renders do not share buffers.
func TestDaemonWallConcurrentScrapes(t *testing.T) {
	cfg := testConfig()
	cfg.Admission.DefaultDeadline = 5000
	wall, err := clock.NewWall(time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	d, err := New(cfg, wall, wall.Submit)
	if err != nil {
		t.Fatal(err)
	}
	go wall.Run()
	defer func() {
		wall.Stop()
		<-wall.Done()
	}()
	d.Start()
	for d.state.Load() != stateReady {
		time.Sleep(time.Millisecond)
	}
	h := d.Handler()

	const scrapers, scrapes, requests = 4, 20, 10
	var wg sync.WaitGroup
	errs := make(chan error, scrapers+len(cfg.Keys))
	for i := 0; i < scrapers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < scrapes; j++ {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
				if body := rec.Body.String(); rec.Code != http.StatusOK ||
					!strings.HasPrefix(body, "# TYPE hybridqos_sim_time gauge\n") || !strings.HasSuffix(body, "\n") {
					errs <- fmt.Errorf("scrape answered %d: %q", rec.Code, body)
					return
				}
			}
		}()
	}
	for key := range cfg.Keys {
		wg.Add(1)
		go func(key string) {
			defer wg.Done()
			for j := 0; j < requests; j++ {
				req := httptest.NewRequest(http.MethodPost, "/request", strings.NewReader(`{"item":3}`))
				req.Header.Set("X-API-Key", key)
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				var resp Response
				if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || rec.Code != http.StatusOK || resp.Outcome != "served" {
					errs <- fmt.Errorf("%s request answered %d: %q", key, rec.Code, rec.Body)
					return
				}
			}
		}(key)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	for key, class := range cfg.Keys {
		if want := fmt.Sprintf("hybridqos_arrivals_total{class=\"%d\"} %d\n", class, requests); !strings.Contains(rec.Body.String(), want) {
			t.Errorf("final scrape lacks %s's %q:\n%s", key, want, rec.Body)
		}
	}
}

// TestDaemonWallNoCrossTalk drives /request from many goroutines on a Wall
// clock with a mix whose outcome each request fixes in advance: served
// (no deadline of its own), expired (deadline_in shorter than any item's
// transmission, on items nothing else asks for), bad_item, and, for the
// rate-limited bronze key, rate_limited instead of either of the first
// two. Every answer must carry its key's class and its own request's
// outcome, so a pooled handler call or a reused engine slot that leaked
// one request's answer into another's fails here.
func TestDaemonWallNoCrossTalk(t *testing.T) {
	cfg := testConfig()
	cfg.Admission.DefaultDeadline = 60000 // a loaded machine must not expire a served request
	cfg.Admission.Shed = nil
	cfg.Admission.Classes = []admission.ClassConfig{{}, {}, {Rate: 0.05, Burst: 1}}
	wall, err := clock.NewWall(time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	d, err := New(cfg, wall, wall.Submit)
	if err != nil {
		t.Fatal(err)
	}
	go wall.Run()
	defer func() {
		wall.Stop()
		<-wall.Done()
	}()
	d.Start()
	for d.state.Load() != stateReady {
		time.Sleep(time.Millisecond)
	}
	h := d.Handler()

	const clients, requests = 8, 40
	keys := sortedKeys(cfg.Keys)
	var wg sync.WaitGroup
	var mu sync.Mutex
	seen := map[string]int{} // answers by outcome
	errs := make(chan error, clients)
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for j := 0; j < requests; j++ {
				key := keys[(g+j)%len(keys)]
				class := cfg.Keys[key]
				var body string
				var want []string
				switch (g*requests + j) % 3 {
				case 0:
					body, want = fmt.Sprintf(`{"item":%d}`, 1+(g+j)%100), []string{"served"}
				case 1:
					body, want = fmt.Sprintf(`{"item":%d,"deadline_in":0.5}`, 201+(g+j)%100), []string{"expired"}
				default:
					body, want = `{"item":9999}`, []string{"bad_item"}
				}
				if class == 2 && want[0] != "bad_item" {
					want = append(want, "rate_limited")
				}
				req := httptest.NewRequest(http.MethodPost, "/request", strings.NewReader(body))
				req.Header.Set("X-API-Key", key)
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				var resp Response
				if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
					errs <- fmt.Errorf("%s %s: answered %d %q", key, body, rec.Code, rec.Body)
					return
				}
				if resp.Class != class || !slices.Contains(want, resp.Outcome) {
					errs <- fmt.Errorf("%s %s: answered %d %+v, want class %d and outcome in %v", key, body, rec.Code, resp, class, want)
					return
				}
				mu.Lock()
				seen[resp.Outcome]++
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	for _, outcome := range []string{"served", "expired", "bad_item", "rate_limited"} {
		if seen[outcome] == 0 {
			t.Errorf("no request answered %s: %v", outcome, seen)
		}
	}
}

// TestDaemonWallUnknownKeyScrapes sends unknown-key /requests from one
// goroutine while another scrapes /metrics, on a Wall clock. Every 401 is
// counted on the clock goroutine, where the scrape's snapshot reads the
// same counter, so under -race a count taken on the handler goroutine
// fails here; and every 401 must be counted exactly once.
func TestDaemonWallUnknownKeyScrapes(t *testing.T) {
	wall, err := clock.NewWall(time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	d, err := New(testConfig(), wall, wall.Submit)
	if err != nil {
		t.Fatal(err)
	}
	go wall.Run()
	defer func() {
		wall.Stop()
		<-wall.Done()
	}()
	d.Start()
	for d.state.Load() != stateReady {
		time.Sleep(time.Millisecond)
	}
	h := d.Handler()

	const n = 200
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	unauthorized := 0
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			req := httptest.NewRequest(http.MethodPost, "/request", strings.NewReader(`{"item":1}`))
			req.Header.Set("X-API-Key", "intruder")
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusUnauthorized {
				errs <- fmt.Errorf("unknown key answered %d: %q", rec.Code, rec.Body)
				return
			}
			unauthorized++
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
			if rec.Code != http.StatusOK {
				errs <- fmt.Errorf("scrape answered %d: %q", rec.Code, rec.Body)
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// Submitted after every 401's count, so it runs after them all.
	snaps := make(chan *telemetry.Snapshot, 1)
	wall.Submit(func() { snaps <- d.tele.TakeSnapshot(wall.Now()) })
	if got := (<-snaps).Counter(telemetry.MetricRejected, telemetry.ClassNone); got != int64(unauthorized) {
		t.Errorf("rejected{class=none} = %d after %d unknown-key requests", got, unauthorized)
	}
}
