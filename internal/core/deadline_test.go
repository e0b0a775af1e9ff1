package core

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"hybridqos/internal/sched"
	"hybridqos/internal/trace"
)

// forwardEDF forwards a pull policy's methods and hides its concrete type,
// so sched.NewSelector serves it with a Linear re-scan where a bare
// sched.EDF with a TTL gets the deadline heap.
type forwardEDF struct{ sched.PullPolicy }

// jsonlRun runs cfg with a JSONL tracer and returns the trace's bytes.
func jsonlRun(t *testing.T, cfg Config) []byte {
	t.Helper()
	var buf bytes.Buffer
	j := trace.NewJSONL(&buf)
	cfg.Tracer = j
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestDeadlineHeapMatchesRescanOverRuns runs the lossy cell (loss,
// retries with backoff, shedding, bandwidth blocking) under EDF twice per
// case, once from the deadline heap and once behind forwardEDF from a
// Linear re-scan, and requires byte-identical JSONL traces. The TTLs
// include one ulp either side of a gap between two arrivals, so some
// deadline falls on or next to the instant of a later arrival.
func TestDeadlineHeapMatchesRescanOverRuns(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		// Loss models and arrival processes are stateful, so every run
		// gets a fresh cell.
		cell := func(ttl float64, pull sched.PullPolicy) Config {
			cfg := lossyUntracedConfig(t, seed)
			cfg.Horizon = 4000
			cfg.RequestTTL, cfg.PullPolicy = ttl, pull
			return cfg
		}
		ref := lossyUntracedConfig(t, seed)
		ref.Horizon = 4000
		ttl := ref.RequestTTL
		buf := &trace.Buffer{}
		ref.Tracer = buf
		if _, err := Run(ref); err != nil {
			t.Fatal(err)
		}
		var arrivals []float64
		for _, e := range buf.Events {
			if e.Kind == trace.KindArrival {
				arrivals = append(arrivals, e.T)
			}
		}
		// The gap from the 100th arrival to the first one at least the
		// configured TTL later.
		first := arrivals[100]
		gap := math.NaN()
		for _, at := range arrivals[101:] {
			if at-first >= ttl {
				gap = at - first
				break
			}
		}
		if math.IsNaN(gap) {
			t.Fatalf("seed %d: no arrival %g after t=%g", seed, ttl, first)
		}
		for _, ttl := range []float64{ttl, 50, math.Nextafter(gap, 0), math.Nextafter(gap, math.Inf(1))} {
			t.Run(fmt.Sprintf("seed=%d/ttl=%g", seed, ttl), func(t *testing.T) {
				want := jsonlRun(t, cell(ttl, sched.EDF{TTL: ttl}))
				got := jsonlRun(t, cell(ttl, forwardEDF{sched.EDF{TTL: ttl}}))
				if !bytes.Equal(got, want) {
					t.Fatalf("re-scan trace (%d B) differs from deadline-heap trace (%d B)", len(got), len(want))
				}
			})
		}
	}
}

// TestTTLOracleFullPush checks the exact TTL model. With every item pushed
// (K = D) by the flat round-robin and no loss, a request waits a uniform
// share of the broadcast cycle C = Σ L_i for its item, whatever its class.
// So with TTL < C each class's expired share is 1 − TTL/C, and its served
// delays are uniform on [0, TTL]: mean TTL/2, p95 0.95·TTL.
func TestTTLOracleFullPush(t *testing.T) {
	cfg := baseConfig(t)
	cfg.Cutoff = cfg.Catalog.D()
	cfg.Horizon = 50000
	cycle := 0.0
	for r := 1; r <= cfg.Catalog.D(); r++ {
		cycle += cfg.Catalog.Length(r)
	}
	ttl := cycle / 2
	cfg.RequestTTL = ttl
	cfg.DelaySamples = &DelaySamples{}
	m, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, cm := range m.PerClass {
		share := float64(cm.Expired) / float64(cm.Served+cm.Expired)
		if want := 1 - ttl/cycle; math.Abs(share-want) > 0.01 {
			t.Errorf("%v: expired share %.4f, model %.4f", cm.Class, share, want)
		}
		if mean, want := cm.MeanDelay(), ttl/2; math.Abs(mean-want) > 0.01*want {
			t.Errorf("%v: served mean %.3f, model %.3f", cm.Class, mean, want)
		}
		if p95, want := cm.DelayHist.Percentile(95), 0.95*ttl; math.Abs(p95-want) > 0.01*want {
			t.Errorf("%v: served p95 %.3f, model %.3f", cm.Class, p95, want)
		}
	}
}

// TestTTLOnlyRelabelsOutcomes checks a metamorphic relation for policies
// whose score ignores the TTL. A deadline does not change which items are
// sent when, only whether a request is counted served or expired at its
// item's transmission. So each class's served + expired is the same at
// every TTL, and a longer TTL never expires more (TTL 0, no deadline,
// expires nothing). EDF is left out: its score reads the TTL.
func TestTTLOnlyRelabelsOutcomes(t *testing.T) {
	for _, name := range []string{"gamma", "stretch"} {
		var completed, expired []int64 // per class, at the first and the previous TTL
		for i, ttl := range []float64{20, 60, 200, 0} {
			cfg := baseConfig(t)
			cfg.PullPolicyName = name
			cfg.RequestTTL = ttl
			m, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				completed = make([]int64, len(m.PerClass))
				expired = make([]int64, len(m.PerClass))
			}
			for c, cm := range m.PerClass {
				if i == 0 {
					completed[c] = cm.Served + cm.Expired
					if cm.Expired == 0 {
						t.Errorf("%s ttl=%g %v: nothing expired", name, ttl, cm.Class)
					}
				} else if got := cm.Served + cm.Expired; got != completed[c] {
					t.Errorf("%s ttl=%g %v: served+expired %d, %d at ttl=20", name, ttl, cm.Class, got, completed[c])
				}
				if i > 0 && cm.Expired > expired[c] {
					t.Errorf("%s ttl=%g %v: expired rose to %d from %d", name, ttl, cm.Class, cm.Expired, expired[c])
				}
				expired[c] = cm.Expired
			}
		}
	}
}
