package core

import (
	"reflect"
	"sort"
	"strings"
	"testing"

	"hybridqos/internal/admission"
	"hybridqos/internal/catalog"
	"hybridqos/internal/clients"
	"hybridqos/internal/clock"
	"hybridqos/internal/faults"
	"hybridqos/internal/telemetry"
	"hybridqos/internal/trace"
)

// Real-time serving tests: the serving Server (serve.go) on a virtual clock.

// rtCatalog builds a unit-length catalog of d items: one item transmits per
// broadcast unit, so capacity is exactly 1 request-batch per unit.
func rtCatalog(t *testing.T, d int) *catalog.Catalog {
	t.Helper()
	cat, err := catalog.Generate(catalog.Config{D: d, Theta: 0.5, MinLen: 1, MaxLen: 1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return cat
}

func rtClasses(t *testing.T, weights ...float64) *clients.Classification {
	t.Helper()
	cl, err := clients.New(clients.Config{Weights: weights})
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

// doneFunc adapts a func literal to Done, so a test hands Submit its
// callback in place.
type doneFunc func(Result)

func (f doneFunc) Done(res Result) { f(res) }

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

// TestRealtimeOverloadDegradesByClass is the 2x-overload chaos scenario:
// three classes offer twice the channel capacity for a thousand broadcast
// units. Degradation must be class-ordered on BOTH axes — every higher
// class's p95 effective delay (expiries count as the full deadline) and
// refusal rate must be no worse than every lower class's.
func TestRealtimeOverloadDegradesByClass(t *testing.T) {
	const (
		numClasses = 3
		deadline   = 30.0
		horizon    = 1000.0
	)
	v := clock.NewVirtual()
	tele, err := telemetry.New(telemetry.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := NewServing(Config{
		Catalog:        rtCatalog(t, 300),
		Classes:        rtClasses(t, 4, 2, 1),
		Cutoff:         0,
		PullPolicyName: "priority",
		Telemetry:      tele,
	}, v, admission.Config{
		Classes:         make([]admission.ClassConfig, numClasses),
		Shed:            &faults.ShedConfig{High: 30, Low: 15, MaxShedClasses: 2},
		DefaultDeadline: deadline,
	})
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()

	type classStats struct {
		submitted, refused, admitted, callbacks int
		effective                               []float64 // served delay, or deadline when expired
	}
	stats := make([]classStats, numClasses)
	// Offered load: one request every 0.5 units (2 per unit against a
	// capacity of 1), round-robin over classes, each class confined to its
	// own hundred-item band so no class rides another's transmissions and —
	// with each item revisited only every 150 units, far past the deadline —
	// requests barely coalesce: the channel is genuinely 2x oversubscribed.
	for k := 0; 0.5*float64(k) < horizon; k++ {
		k := k
		class := k % numClasses
		item := class*100 + (k/numClasses)%100 + 1
		v.At(0.5*float64(k), func() {
			st := &stats[class]
			st.submitted++
			verdict := rt.Submit(item, clients.Class(class), 0, doneFunc(func(res Result) {
				st.callbacks++
				if res.Outcome == OutcomeServed {
					st.effective = append(st.effective, res.Delay)
				} else {
					st.effective = append(st.effective, deadline)
				}
			}))
			if verdict == admission.Admitted {
				st.admitted++
			} else {
				st.refused++
			}
		})
	}
	v.RunUntil(horizon + 2*deadline)

	for c := 0; c < numClasses; c++ {
		st := &stats[c]
		if st.callbacks != st.admitted {
			t.Fatalf("class %d: %d callbacks for %d admitted requests", c, st.callbacks, st.admitted)
		}
		if st.submitted == 0 {
			t.Fatalf("class %d: no load generated", c)
		}
	}
	// The scenario must actually overload: refusals and expiries exist.
	totalRefused := stats[0].refused + stats[1].refused + stats[2].refused
	if totalRefused == 0 {
		t.Fatal("2x overload produced no refusals; the scenario is not stressing admission")
	}
	for c := 0; c+1 < numClasses; c++ {
		hi, lo := &stats[c], &stats[c+1]
		hiP95, loP95 := p95(hi.effective), p95(lo.effective)
		if hiP95 > loP95 {
			t.Errorf("class %d p95 effective delay %g worse than class %d's %g", c, hiP95, c+1, loP95)
		}
		hiRate := float64(hi.refused) / float64(hi.submitted)
		loRate := float64(lo.refused) / float64(lo.submitted)
		if hiRate > loRate {
			t.Errorf("class %d refusal rate %g worse than class %d's %g", c, hiRate, c+1, loRate)
		}
	}
	if stats[0].refused != 0 {
		t.Errorf("class 0 was refused %d times; the highest class is never shed", stats[0].refused)
	}
}

// TestRealtimeBurstCoalesces: a burst of requests for one item rides at
// most two transmissions (one in flight when the burst lands, one for the
// re-pooled remainder).
func TestRealtimeBurstCoalesces(t *testing.T) {
	v := clock.NewVirtual()
	tele, err := telemetry.New(telemetry.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := NewServing(Config{
		Catalog:   rtCatalog(t, 5),
		Classes:   rtClasses(t, 2, 1),
		Telemetry: tele,
	}, v, admission.Config{
		Classes:         make([]admission.ClassConfig, 2),
		DefaultDeadline: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	served := 0
	for i := 0; i < 100; i++ {
		verdict := rt.Submit(3, clients.Class(i%2), 0, doneFunc(func(res Result) {
			if res.Outcome != OutcomeServed {
				t.Errorf("burst request resolved %v", res.Outcome)
			}
			if res.Delay > 2 {
				t.Errorf("burst delay %g exceeds two transmission lengths", res.Delay)
			}
			served++
		}))
		if verdict != admission.Admitted {
			t.Fatalf("burst request %d refused: %v", i, verdict)
		}
	}
	v.RunUntil(10)
	if served != 100 {
		t.Fatalf("served %d of 100 burst requests", served)
	}
	if got := tele.TakeSnapshot(10).Counter(telemetry.MetricPullTx, telemetry.ClassNone); got > 2 {
		t.Errorf("burst used %d pull transmissions, want at most 2", got)
	}
	if rt.Pending() != 0 {
		t.Errorf("Pending = %d after the burst resolved", rt.Pending())
	}
}

// TestRealtimeDeadlineTieFavorsExpiry pins the race the drain guarantee
// depends on: a transmission completing exactly at the deadline loses to
// the expiry timer, so no client ever hears a success after its deadline.
func TestRealtimeDeadlineTieFavorsExpiry(t *testing.T) {
	v := clock.NewVirtual()
	rt, err := NewServing(Config{
		Catalog: rtCatalog(t, 3),
		Classes: rtClasses(t, 2, 1),
	}, v, admission.Config{
		Classes:         make([]admission.ClassConfig, 2),
		DefaultDeadline: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	var got *Result
	var at float64
	// Item length is exactly 1: completion ties the deadline.
	rt.Submit(1, 0, 1, doneFunc(func(res Result) {
		got = &res
		at = v.Now()
	}))
	v.RunUntil(5)
	if got == nil {
		t.Fatal("no callback")
	}
	if got.Outcome != OutcomeExpired {
		t.Fatalf("deadline==completion resolved %v, want expired", got.Outcome)
	}
	if at != 1 {
		t.Fatalf("expiry callback at t=%g, want exactly the deadline t=1", at)
	}
}

// TestRealtimeDeadlineStormSkipsDeadEntries: when every queued request has
// already expired, the engine recycles the entries instead of broadcasting
// to nobody.
func TestRealtimeDeadlineStormSkipsDeadEntries(t *testing.T) {
	v := clock.NewVirtual()
	tele, err := telemetry.New(telemetry.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := NewServing(Config{
		Catalog:   rtCatalog(t, 10),
		Classes:   rtClasses(t, 2, 1),
		Telemetry: tele,
	}, v, admission.Config{
		Classes:         make([]admission.ClassConfig, 2),
		DefaultDeadline: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	expired := 0
	for i := 0; i < 50; i++ {
		// The 0.5 deadline is shorter than any transmission can finish
		// except the first.
		rt.Submit(i%10+1, clients.Class(i%2), 0.5, doneFunc(func(res Result) {
			if v.Now() > 0.5 {
				t.Errorf("callback at t=%g, after the deadline", v.Now())
			}
			expired++
			_ = res
		}))
	}
	v.RunUntil(20)
	// The first entry's transmission was in flight before anything expired;
	// every other entry must be recycled untransmitted.
	if got := tele.TakeSnapshot(20).Counter(telemetry.MetricPullTx, telemetry.ClassNone); got != 1 {
		t.Errorf("deadline storm used %d pull transmissions, want 1", got)
	}
	if expired != 50 {
		t.Errorf("%d of 50 storm requests expired", expired)
	}
	if rt.Pending() != 0 {
		t.Errorf("Pending = %d after the storm", rt.Pending())
	}
}

// TestRealtimePushServesWaiters: requests for push-band items wait for the
// broadcast cycle and resolve with Push=true.
func TestRealtimePushServesWaiters(t *testing.T) {
	v := clock.NewVirtual()
	rt, err := NewServing(Config{
		Catalog: rtCatalog(t, 4),
		Classes: rtClasses(t, 2, 1),
		Cutoff:  2,
	}, v, admission.Config{
		Classes:         make([]admission.ClassConfig, 2),
		DefaultDeadline: 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	var pushServed, pullServed bool
	v.At(0.25, func() {
		rt.Submit(1, 0, 0, doneFunc(func(res Result) {
			if res.Outcome == OutcomeServed && res.Push {
				pushServed = true
			}
		}))
		rt.Submit(4, 1, 0, doneFunc(func(res Result) {
			if res.Outcome == OutcomeServed && !res.Push {
				pullServed = true
			}
		}))
	})
	v.RunUntil(20)
	if !pushServed {
		t.Error("push-band request was not served by a broadcast")
	}
	if !pullServed {
		t.Error("pull-band request was not served on demand")
	}
}

// TestRealtimePushResubmitDuringBroadcast: a done callback that submits
// the same push item again — a closed-loop client re-requesting on its
// answer — registers while the item's broadcast is still being served. It
// must be served by the item's next broadcast, not wiped with the waiters
// just served and left to expire.
func TestRealtimePushResubmitDuringBroadcast(t *testing.T) {
	v := clock.NewVirtual()
	rt, err := NewServing(Config{
		Catalog: rtCatalog(t, 8),
		Classes: rtClasses(t, 2, 1),
		Cutoff:  4,
	}, v, admission.Config{
		Classes:         make([]admission.ClassConfig, 2),
		DefaultDeadline: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	var got []Result
	v.At(0.5, func() {
		rt.Submit(1, 0, 0, doneFunc(func(first Result) {
			got = append(got, first)
			rt.Submit(1, 0, 0, doneFunc(func(second Result) { got = append(got, second) }))
		}))
	})
	v.RunUntil(200)
	// Item 1 is on the air over [0,1) and every 4 units after: the first
	// request hears the end of the first broadcast, the second a whole
	// cycle later.
	want := []Result{
		{Outcome: OutcomeServed, Delay: 0.5, Push: true},
		{Outcome: OutcomeServed, Delay: 4, Push: true},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("results %+v, want %+v", got, want)
	}
}

// TestRealtimeDrain: mid-storm drain must stop admission, resolve every
// admitted request by its deadline, and report completion exactly once.
func TestRealtimeDrain(t *testing.T) {
	const deadline = 8.0
	v := clock.NewVirtual()
	rt, err := NewServing(Config{
		Catalog: rtCatalog(t, 12),
		Classes: rtClasses(t, 4, 2, 1),
		Cutoff:  2,
	}, v, admission.Config{
		Classes:         make([]admission.ClassConfig, 3),
		DefaultDeadline: deadline,
	})
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()

	admitted, callbacks, peak := 0, 0, 0
	var lastSubmit float64
	for k := 0; k < 40; k++ {
		k := k
		at := 0.2 * float64(k)
		lastSubmit = at
		v.At(at, func() {
			if rt.Draining() {
				return // the HTTP layer refuses with 503 here
			}
			deadlineAt := v.Now() + deadline
			if rt.Submit(k%12+1, clients.Class(k%3), 0, doneFunc(func(res Result) {
				callbacks++
				if v.Now() > deadlineAt {
					t.Errorf("callback at t=%g, after its deadline %g", v.Now(), deadlineAt)
				}
			})) == admission.Admitted {
				admitted++
			}
			// The request arena grows only to the peak count in flight:
			// answered slots recycle.
			peak = max(peak, rt.Pending())
			if n := len(rt.reqs.gen); n > peak {
				t.Errorf("request arena grew to %d slots for at most %d requests pending", n, peak)
			}
		})
	}

	drained := 0
	var drainedAt float64
	v.At(4, func() {
		rt.Drain(func() {
			drained++
			drainedAt = v.Now()
		})
	})
	v.RunUntil(lastSubmit + 3*deadline)

	if drained != 1 {
		t.Fatalf("onDrained fired %d times", drained)
	}
	if callbacks != admitted {
		t.Fatalf("%d callbacks for %d admitted requests", callbacks, admitted)
	}
	if rt.Pending() != 0 {
		t.Fatalf("Pending = %d after drain", rt.Pending())
	}
	if drainedAt > 4+deadline {
		t.Errorf("drain completed at t=%g, past the deadline bound %g", drainedAt, 4+deadline)
	}
	// A drained engine refuses new work loudly.
	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Error("Submit on a drained engine did not panic")
			} else if msg, ok := r.(string); !ok || !strings.HasPrefix(msg, "core: ") {
				t.Errorf("panic %v lacks the package prefix", r)
			}
		}()
		rt.Submit(3, 0, 0, doneFunc(func(Result) {}))
	}()
}

// TestRealtimeDrainIdle: draining an idle engine completes synchronously.
func TestRealtimeDrainIdle(t *testing.T) {
	v := clock.NewVirtual()
	rt, err := NewServing(Config{
		Catalog: rtCatalog(t, 3),
		Classes: rtClasses(t, 2, 1),
	}, v, admission.Config{
		Classes:         make([]admission.ClassConfig, 2),
		DefaultDeadline: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	done := false
	rt.Drain(func() { done = true })
	if !done {
		t.Fatal("idle drain did not complete synchronously")
	}
}

// TestRealtimeQuotaReleasedOnExpiry: expiry returns the quota slot, so a
// class locked at MaxPending recovers once its stuck requests time out.
func TestRealtimeQuotaReleasedOnExpiry(t *testing.T) {
	v := clock.NewVirtual()
	rt, err := NewServing(Config{
		Catalog: rtCatalog(t, 6),
		Classes: rtClasses(t, 2, 1),
	}, v, admission.Config{
		Classes:         []admission.ClassConfig{{MaxPending: 2}, {}},
		DefaultDeadline: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	outcomes := 0
	submit := func(item int) admission.Verdict {
		return rt.Submit(item, 0, 0, doneFunc(func(Result) { outcomes++ }))
	}
	v.At(0.5, func() {
		// Two slots fill; the transmission in flight (item 1) will serve one.
		if v := submit(2); v != admission.Admitted {
			t.Errorf("first: %v", v)
		}
		if v := submit(3); v != admission.Admitted {
			t.Errorf("second: %v", v)
		}
		if v := submit(4); v != admission.QuotaExceeded {
			t.Errorf("over quota: %v", v)
		}
	})
	v.At(10, func() {
		// Everything resolved (served or expired by t=3.5): slots are back.
		if v := submit(5); v != admission.Admitted {
			t.Errorf("after recovery: %v", v)
		}
	})
	v.RunUntil(30)
	if outcomes != 3 {
		t.Errorf("%d outcomes for 3 admitted requests", outcomes)
	}
}

// TestRealtimeConfigValidation covers the constructor's refusals.
func TestRealtimeConfigValidation(t *testing.T) {
	v := clock.NewVirtual()
	cat := rtCatalog(t, 5)
	cls := rtClasses(t, 2, 1)
	adm := admission.Config{Classes: make([]admission.ClassConfig, 2), DefaultDeadline: 5}
	cases := []struct {
		name string
		cfg  Config
		clk  clock.Clock
		adm  admission.Config
	}{
		{"nil catalog", Config{Classes: cls}, v, adm},
		{"nil classes", Config{Catalog: cat}, v, adm},
		{"nil clock", Config{Catalog: cat, Classes: cls}, nil, adm},
		{"bad cutoff", Config{Catalog: cat, Classes: cls, Cutoff: 9}, v, adm},
		{"bad alpha", Config{Catalog: cat, Classes: cls, Alpha: 2}, v, adm},
		{"class count mismatch", Config{Catalog: cat, Classes: cls}, v,
			admission.Config{Classes: make([]admission.ClassConfig, 3), DefaultDeadline: 5}},
		{"bad admission", Config{Catalog: cat, Classes: cls}, v,
			admission.Config{Classes: make([]admission.ClassConfig, 2)}},
		{"unknown pull policy", Config{Catalog: cat, Classes: cls, PullPolicyName: "no-such-policy"}, v, adm},
		{"simulated channel", Config{Catalog: cat, Classes: cls, RequestTTL: 3}, v, adm},
	}
	for _, tc := range cases {
		if _, err := NewServing(tc.cfg, tc.clk, tc.adm); err == nil {
			t.Errorf("%s: NewServing succeeded", tc.name)
		}
	}
}

// TestRealtimeTelemetryAudited is the first audit of serving telemetry: the
// 2x-overload script (rate limit and quota engaged beside the shedder) runs
// on a serving Server whose events stream into a trace buffer while a live
// collector counts. Replaying the captured stream through trace.Apply must
// reproduce the live counters and histograms exactly, and every class must
// conserve its requests — arrivals = served + expired + shed + rate-limited
// + quota-exceeded + still pending — mid-script and after a drain, when
// nothing may remain pending.
func TestRealtimeTelemetryAudited(t *testing.T) {
	sc := serveScripts()[0]
	if sc.Name != "overload" {
		t.Fatalf("script 0 is %q, want the overload script", sc.Name)
	}
	sc.Admission.Classes = []admission.ClassConfig{{}, {MaxPending: 3}, {Rate: 0.3, Burst: 2}}
	sc.Admission.Shed = &faults.ShedConfig{High: 8, Low: 4, MaxShedClasses: 1}
	const drainAt = 500.0

	v := clock.NewVirtual()
	tele, err := telemetry.New(telemetry.Options{})
	if err != nil {
		t.Fatal(err)
	}
	buf := &trace.Buffer{}
	s, err := NewServing(Config{
		Catalog: sc.catalog(t), Classes: sc.classes(t), PullPolicyName: sc.Pull,
		Tracer: buf, Telemetry: tele,
	}, v, sc.Admission)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	pending := make([]int, len(sc.Weights))
	for _, op := range sc.Ops {
		op := op
		v.At(op.T, func() {
			if s.Draining() {
				return
			}
			if s.Submit(op.Item, clients.Class(op.Class), 0, doneFunc(func(Result) { pending[op.Class]-- })) == admission.Admitted {
				pending[op.Class]++
			}
		})
	}
	drained := false
	v.At(drainAt, func() { s.Drain(func() { drained = true }) })

	check := func(when string) {
		t.Helper()
		now := v.Now()
		snap := tele.TakeSnapshot(now)
		total := 0
		for c := range pending {
			in := snap.Counter(telemetry.MetricArrivals, c)
			out := snap.Counter(telemetry.MetricServedPush, c) + snap.Counter(telemetry.MetricServedPull, c) +
				snap.Counter(telemetry.MetricExpired, c) + snap.Counter(telemetry.MetricShed, c) +
				snap.Counter(telemetry.MetricRateLimited, c) + snap.Counter(telemetry.MetricQuotaExceeded, c)
			if in != out+int64(pending[c]) {
				t.Errorf("%s: class %d arrivals %d != terminal %d + pending %d", when, c, in, out, pending[c])
			}
			total += pending[c]
		}
		if s.Pending() != total {
			t.Errorf("%s: Pending() = %d, callbacks leave %d", when, s.Pending(), total)
		}
		buf.Flush()
		events := append(append([]trace.Event(nil), buf.Events...),
			trace.Event{T: now, Kind: trace.KindSnapshot, Class: -1, Snap: snap})
		if n, err := trace.VerifySnapshots(events); err != nil || n != 1 {
			t.Errorf("%s: replay audit verified %d snapshots: %v", when, n, err)
		}
	}
	v.RunUntil(drainAt - 0.25)
	if s.Pending() == 0 {
		t.Fatal("nothing pending mid-script; the conservation check would be vacuous")
	}
	check("mid-script")
	v.RunUntil(sc.Until)
	if !drained || s.Pending() != 0 {
		t.Fatalf("drained=%v with %d pending after the drain", drained, s.Pending())
	}
	check("after drain")
	snap := tele.TakeSnapshot(v.Now())
	for _, m := range []string{telemetry.MetricExpired, telemetry.MetricShed, telemetry.MetricRateLimited, telemetry.MetricQuotaExceeded} {
		n := int64(0)
		for c := range pending {
			n += snap.Counter(m, c)
		}
		if n == 0 {
			t.Errorf("no %s counted: the script does not exercise that refusal", m)
		}
	}
}

// TestRealtimeBoundedState: a serving Server has no horizon, so it must
// not book what a simulation books up to one — no arrival chain, no
// telemetry snapshot chain — and it keeps no per-class delay samples.
func TestRealtimeBoundedState(t *testing.T) {
	v := clock.NewVirtual()
	tele, err := telemetry.New(telemetry.Options{SnapshotEvery: 5})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := NewServing(Config{
		Catalog:   rtCatalog(t, 5),
		Classes:   rtClasses(t, 2, 1),
		Telemetry: tele,
	}, v, admission.Config{Classes: make([]admission.ClassConfig, 2), DefaultDeadline: 5})
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	if n := v.Pending(); n != 0 {
		t.Errorf("an idle pull-only serving Server booked %d events at Start", n)
	}
	for _, cm := range rt.Peek().PerClass {
		if cm.DelayHist != nil {
			t.Errorf("class %d keeps delay samples", cm.Class)
		}
	}
}
