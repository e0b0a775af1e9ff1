package core_test

import (
	"testing"

	"hybridqos/internal/catalog"
	"hybridqos/internal/clients"
	"hybridqos/internal/core"
	"hybridqos/internal/faults"
	"hybridqos/internal/trace"
)

func cellBase(t *testing.T) core.Config {
	t.Helper()
	cat, err := catalog.Generate(catalog.Config{
		D: 100, Theta: 0.6, MinLen: 1, MaxLen: 5,
		LengthWeights: catalog.PaperLengthWeights(), Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := clients.New(clients.PaperConfig())
	if err != nil {
		t.Fatal(err)
	}
	return core.Config{
		Catalog: cat, Classes: cl, Lambda: 5, Cutoff: 40, Alpha: 0.5,
		Horizon: 400, Seed: 11,
	}
}

// The split lifecycle must reproduce Run bit-for-bit regardless of how the
// horizon is segmented — the cell refactor's core contract.
func TestCellLifecycleMatchesRun(t *testing.T) {
	ref, err := core.New(cellBase(t))
	if err != nil {
		t.Fatal(err)
	}
	want := ref.Run()
	srv, err := core.New(cellBase(t))
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	for _, barrier := range []float64{13.5, 100, 100, 250, 399.25, 400} {
		srv.AdvanceTo(barrier)
		if srv.Now() != barrier {
			t.Fatalf("Now()=%g after AdvanceTo(%g)", srv.Now(), barrier)
		}
	}
	got := srv.Finish()
	checkSame := func(name string, a, b int64) {
		if a != b {
			t.Errorf("%s: segmented=%d, run=%d", name, a, b)
		}
	}
	checkSame("push", got.PushBroadcasts, want.PushBroadcasts)
	checkSame("pull", got.PullTransmissions, want.PullTransmissions)
	for i := range want.PerClass {
		checkSame("served", got.PerClass[i].Served, want.PerClass[i].Served)
		checkSame("arrivals", got.PerClass[i].Arrivals, want.PerClass[i].Arrivals)
		if got.PerClass[i].Delay.Mean() != want.PerClass[i].Delay.Mean() {
			t.Errorf("class %d delay mean diverged", i)
		}
	}
}

// A client that roams while its pull request is queued leaves the queue: the
// request is extracted with its class, arrival and retry budget intact, and
// the origin cell books an outbound handoff.
func TestRoamWhilePullQueued(t *testing.T) {
	srv, err := core.New(cellBase(t))
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	srv.AdvanceTo(60)
	before := srv.PendingLoad()
	if before == 0 {
		t.Fatal("no pending load to roam")
	}
	roamers := srv.ExtractRoamers(func() bool { return true })
	if len(roamers) != before {
		t.Fatalf("extracted %d roamers from load %d", len(roamers), before)
	}
	if srv.PendingLoad() != 0 {
		t.Errorf("pending load %d after extracting everyone", srv.PendingLoad())
	}
	sawPull := false
	var out int64
	for _, r := range roamers {
		if !r.Push {
			sawPull = true
			if r.Item <= 40 {
				t.Errorf("queued pull for item %d within the push cutoff", r.Item)
			}
		}
		if r.Arrival < 0 || r.Arrival > 60 {
			t.Errorf("roamer arrival %g outside the run so far", r.Arrival)
		}
	}
	for _, cm := range srv.Peek().PerClass {
		out += cm.HandoffsOut
	}
	if !sawPull {
		t.Error("no queued pull roamed")
	}
	if out != int64(len(roamers)) {
		t.Errorf("HandoffsOut=%d, want %d", out, len(roamers))
	}
}

// A client that roams while waiting on a broadcast (push item, transmission
// possibly mid-air) leaves the waiter list: the broadcast completing later
// must not count it as served.
func TestRoamWhilePushPending(t *testing.T) {
	srv, err := core.New(cellBase(t))
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	// Stop mid-run at a fractional time: broadcasts are back-to-back, so a
	// transmission is in flight and recent arrivals for pushed items wait.
	var roamers []core.Roamer
	for _, barrier := range []float64{10.5, 20.5, 30.5, 40.5, 50.5} {
		srv.AdvanceTo(barrier)
		roamers = srv.ExtractRoamers(func() bool { return true })
		if len(roamers) > 0 {
			break
		}
	}
	sawPush := false
	for _, r := range roamers {
		if r.Push {
			sawPush = true
			if r.Item > 40 {
				t.Errorf("push waiter for item %d beyond the cutoff", r.Item)
			}
		}
	}
	if !sawPush {
		t.Skip("no push waiter pending at any probed barrier")
	}
	served := func() int64 {
		var n int64
		for _, cm := range srv.Peek().PerClass {
			n += cm.Served
		}
		return n
	}
	base := served()
	// Let the in-flight broadcast (length ≤ 5) complete: the departed
	// waiters must not be served by it.
	srv.AdvanceTo(srv.Now() + 5)
	extra := served() - base
	// Only arrivals after the extraction may be served in this window; the
	// roamers themselves are gone. With λ=5 over 5 units, a handful of new
	// arrivals is expected — the regression would be extra ≈ len(roamers)
	// on top of that, so just assert the books: served never includes a
	// roamer (checked via conservation below).
	var out, arr int64
	for _, cm := range srv.Peek().PerClass {
		out += cm.HandoffsOut
		arr += cm.Arrivals
	}
	if out != int64(len(roamers)) {
		t.Errorf("HandoffsOut=%d, want %d", out, len(roamers))
	}
	if served() > arr-out {
		t.Errorf("served=%d exceeds arrivals minus departures (%d-%d): a roamer was served after leaving", served(), arr, out)
	}
	_ = extra
}

// A roamer whose deadline passes in transit is refused at re-attachment:
// Inject reports expiry, books the expired request and a handoff refusal,
// and nothing joins the queue.
func TestDeadlineExpiresInTransit(t *testing.T) {
	cfg := cellBase(t)
	cfg.RequestTTL = 5
	srv, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	srv.AdvanceTo(100)
	load := srv.PendingLoad()
	if out := srv.Inject(50, 1, 90, 0, 0); out != core.InjectExpired {
		t.Fatalf("Inject(arrival=90, TTL=5, now=100) = %v, want InjectExpired", out)
	}
	cm := srv.Peek().PerClass[1]
	if cm.Expired == 0 {
		t.Error("expiry not booked")
	}
	if cm.HandoffRefusals != 1 {
		t.Errorf("HandoffRefusals=%d, want 1", cm.HandoffRefusals)
	}
	if srv.PendingLoad() != load {
		t.Error("expired roamer changed the pending load")
	}
	// Within the deadline the same roamer is accepted — as a pull (rank 50
	// is past the cutoff) with its original arrival preserved.
	if out := srv.Inject(50, 1, 98, 2, 0); out != core.InjectAccepted {
		t.Fatalf("in-deadline Inject = %v, want InjectAccepted", out)
	}
	if srv.PendingLoad() != load+1 {
		t.Error("accepted roamer did not join the queue")
	}
	if cm.HandoffsIn != 1 {
		t.Errorf("HandoffsIn=%d, want 1", cm.HandoffsIn)
	}
}

// An overloaded destination sheds an inbound roamer through the same
// admission controller as local arrivals.
func TestInjectShed(t *testing.T) {
	cfg := cellBase(t)
	cfg.Shed = &faults.ShedConfig{High: 1, Low: 0, MaxShedClasses: 2}
	buf := &trace.Buffer{}
	cfg.Tracer = buf
	srv, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	srv.AdvanceTo(60)
	if srv.Inject(50, 2, 59, 0, 0) != core.InjectShed {
		// The controller needs pending load ≥ High; with the tiny High=1
		// that is near-certain at t=60, but fall back to pushing load up.
		srv.AdvanceTo(120)
		if srv.Inject(50, 2, 119, 0, 0) != core.InjectShed {
			t.Fatal("overloaded cell accepted a low-priority roamer")
		}
	}
	buf.Flush()
	sawRefusal := false
	for _, e := range buf.Events {
		if e.Kind == trace.KindHandoffRefused && e.Reason == trace.RefusalShed {
			sawRefusal = true
		}
	}
	if !sawRefusal {
		t.Error("no handoff-refused/shed trace event")
	}
	// The top class is never sheddable: the same roamer at class 0 attaches.
	if srv.Inject(50, 0, srv.Now()-1, 0, 0) != core.InjectAccepted {
		t.Error("top-class roamer shed")
	}
}

// A push-side roamer re-attaches as a broadcast waiter and is served by the
// next broadcast of its item, with delay measured from the original arrival.
func TestInjectPushWaiter(t *testing.T) {
	srv, err := core.New(cellBase(t))
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	srv.AdvanceTo(60)
	cm := srv.Peek().PerClass[0]
	servedBefore := cm.Served
	if out := srv.Inject(1, 0, 59, 0, 0); out != core.InjectAccepted {
		t.Fatalf("Inject(rank 1) = %v", out)
	}
	// Rank 1 is broadcast every push cycle; well before the horizon the
	// waiter must have been served.
	srv.AdvanceTo(300)
	if cm.Served <= servedBefore {
		t.Error("injected push waiter never served")
	}
}
