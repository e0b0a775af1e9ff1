package core

import (
	"reflect"
	"testing"

	"hybridqos/internal/faults"
	"hybridqos/internal/trace"
	"hybridqos/internal/uplink"
)

// TestFaultLayerOffIsNoOp checks the bit-identity guarantee: a run with a
// 0-probability loss model (and no retries or shedding) produces metrics
// byte-identical to a run with the fault layer absent entirely. The loss
// stream is split last and drawn from its own RNG, so even the per-
// transmission variate draws cannot perturb the trajectory.
func TestFaultLayerOffIsNoOp(t *testing.T) {
	off, err := Run(baseConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	cfg := baseConfig(t)
	lm, err := faults.NewBernoulli(0)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Loss = lm
	zero, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(off, zero) {
		t.Fatalf("p=0 loss model perturbed the run:\nwithout: %+v\nwith:    %+v", off, zero)
	}
}

// fullFaultConfig is the whole stack at once: bursty loss, bounded jittered
// retries, TTL deadlines, a rate-limited uplink, shedding and tracing.
func fullFaultConfig(t *testing.T) (Config, *trace.Counter) {
	t.Helper()
	cfg := baseConfig(t)
	cfg.RequestTTL = 150
	lm, err := faults.NewBurstLoss(0.25, 5)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Loss = lm
	cfg.Retry = faults.RetryPolicy{MaxAttempts: 3, Base: 1, Multiplier: 2, Max: 20, Jitter: 0.5}
	cfg.Shed = &faults.ShedConfig{High: 40, Low: 20}
	tb, err := uplink.NewTokenBucket(3, 5)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Uplink = tb
	tr := trace.NewCounter()
	cfg.Tracer = tr
	return cfg, tr
}

// TestFullStackFaultRunDeterministic reruns the full fault stack under one
// seed and requires byte-identical metrics and identical trace tallies —
// retry scheduling, jitter, shedding and the Gilbert–Elliott chain must all
// come off the seeded streams.
func TestFullStackFaultRunDeterministic(t *testing.T) {
	run := func() (*Metrics, map[trace.Kind]int64) {
		cfg, tr := fullFaultConfig(t)
		m, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		kinds := map[trace.Kind]int64{}
		for _, k := range []trace.Kind{trace.KindCorrupt, trace.KindRetry, trace.KindShed, trace.KindServed} {
			kinds[k] = tr.Count(k)
		}
		return m, kinds
	}
	m1, k1 := run()
	m2, k2 := run()
	if !reflect.DeepEqual(m1, m2) {
		t.Fatal("full-stack fault run not deterministic")
	}
	if !reflect.DeepEqual(k1, k2) {
		t.Fatalf("trace tallies diverge: %v vs %v", k1, k2)
	}
	if k1[trace.KindCorrupt] == 0 || k1[trace.KindRetry] == 0 {
		t.Fatalf("full stack exercised no faults: %v", k1)
	}
}

// TestCorruptionTriggersRetriesAndFailures drives an i.i.d. lossy downlink
// with a small retry budget and checks every counter the layer adds.
func TestCorruptionTriggersRetriesAndFailures(t *testing.T) {
	cfg := baseConfig(t)
	lm, err := faults.NewBernoulli(0.4)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Loss = lm
	cfg.Retry = faults.RetryPolicy{MaxAttempts: 2, Base: 1, Multiplier: 2}
	m, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.CorruptedPushes == 0 || m.CorruptedPulls == 0 {
		t.Fatalf("40%% loss corrupted nothing: %d push, %d pull", m.CorruptedPushes, m.CorruptedPulls)
	}
	var retries, failed, served int64
	for _, cm := range m.PerClass {
		retries += cm.Retries
		failed += cm.Failed
		served += cm.Served
	}
	if retries == 0 {
		t.Fatal("no retries despite corruption")
	}
	if failed == 0 {
		t.Fatal("no retry-budget exhaustion despite 40% loss and 2 attempts")
	}
	if served == 0 {
		t.Fatal("nothing served — retries should recover most requests")
	}
	if m.CorruptedPushes+m.CorruptedPulls == 0 {
		t.Fatal("no transmission corrupted despite 40% loss")
	}
}

// TestTotalLossWithoutRetriesFailsEverything is the boundary: a channel that
// corrupts every transmission and clients that never re-request.
func TestTotalLossWithoutRetriesFailsEverything(t *testing.T) {
	cfg := baseConfig(t)
	cfg.Horizon = 2000
	lm, err := faults.NewBernoulli(1)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Loss = lm
	m, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if corrupted := m.CorruptedPushes + m.CorruptedPulls; corrupted != m.PushBroadcasts+m.PullTransmissions {
		t.Fatalf("%d of %d transmissions corrupted on a fully corrupted channel", corrupted, m.PushBroadcasts+m.PullTransmissions)
	}
	var served, failed int64
	for _, cm := range m.PerClass {
		served += cm.Served
		failed += cm.Failed
	}
	if served != 0 {
		t.Fatalf("%d requests served on a fully corrupted channel", served)
	}
	if failed == 0 {
		t.Fatal("no pull requests failed without retries")
	}
}

// TestRetryBeyondTTLExpires: when the first backoff already overshoots the
// request's deadline, the client gives up — the request expires instead of
// retrying.
func TestRetryBeyondTTLExpires(t *testing.T) {
	cfg := baseConfig(t)
	cfg.Horizon = 2000
	cfg.RequestTTL = 400 // generous against delay, tiny against the backoff
	lm, err := faults.NewBernoulli(0.5)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Loss = lm
	cfg.Retry = faults.RetryPolicy{MaxAttempts: 5, Base: 5000, Multiplier: 2}
	m, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var retries, expired int64
	for _, cm := range m.PerClass {
		retries += cm.Retries
		expired += cm.Expired
	}
	if retries != 0 {
		t.Fatalf("%d retries booked past the TTL deadline", retries)
	}
	if expired == 0 {
		t.Fatal("no expiries despite backoff overshooting every deadline")
	}
}

// TestSheddingProtectsTopClass: under bursty loss and tight watermarks the
// admission controller sheds Class-C, keeping Class-A's failure rate
// strictly lower; Class-A itself is never shed (default MaxShedClasses).
func TestSheddingProtectsTopClass(t *testing.T) {
	cfg := baseConfig(t)
	lm, err := faults.NewBurstLoss(0.3, 5)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Loss = lm
	cfg.Retry = faults.RetryPolicy{MaxAttempts: 3, Base: 1, Multiplier: 2}
	cfg.Shed = &faults.ShedConfig{High: 30, Low: 15}
	m, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, c := m.PerClass[0], m.PerClass[2]
	if c.Shed == 0 {
		t.Fatal("Class-C never shed under overload")
	}
	if a.Shed != 0 || m.PerClass[1].Shed != 0 {
		t.Fatalf("higher classes shed (A=%d, B=%d) with the bottom-class-only default", a.Shed, m.PerClass[1].Shed)
	}
	if a.FailureRate() >= c.FailureRate() {
		t.Fatalf("Class-A failure rate %.4f not below Class-C %.4f", a.FailureRate(), c.FailureRate())
	}
}

// TestCorruptedPushWaitersServedNextCycle: a corrupted broadcast leaves its
// waiters registered, so they are served by a later cycle of the same item
// rather than dropped.
func TestCorruptedPushWaitersServedNextCycle(t *testing.T) {
	cfg := baseConfig(t)
	lm, err := faults.NewBernoulli(0.3)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Loss = lm
	m, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.CorruptedPushes == 0 {
		t.Fatal("no push corruption at 30% loss")
	}
	var pushServed int64
	for _, cm := range m.PerClass {
		pushServed += cm.PushDelay.N()
	}
	if pushServed == 0 {
		t.Fatal("no push-served requests — corrupted broadcasts must not drop waiters")
	}
}
