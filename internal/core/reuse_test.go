package core

import (
	"reflect"
	"runtime"
	"testing"

	"hybridqos/internal/trace"
)

// reuseCells are differently shaped cells whose runs hand each other their
// pull-queue entries, push-waiter tables and retry arenas: a γ heap with
// K=40, the lossy cell's EDF deadline heap with retries and a trace, a
// traced K=80 cell with spans (more waiter rows than any other), the "none"
// push policy (one waiter row, every request pulled), and RxW's linear
// queue.
var reuseCells = []struct {
	name   string
	config func(tb testing.TB) Config
}{
	{"paper", func(tb testing.TB) Config {
		cfg := baseConfig(tb)
		cfg.Horizon = 2000
		return cfg
	}},
	{"lossy", func(tb testing.TB) Config { return lossyOverloadConfig(tb, 3) }},
	{"K=80", func(tb testing.TB) Config {
		cfg := baseConfig(tb)
		cfg.Horizon, cfg.Cutoff = 2000, 80
		cfg.Spans = &SpanConfig{Rates: []float64{1, 0.5, 0.25}}
		cfg.Tracer = &trace.Buffer{}
		return cfg
	}},
	{"K=0 none push", func(tb testing.TB) Config {
		cfg := baseConfig(tb)
		cfg.Horizon, cfg.PushPolicyName = 2000, "none"
		return cfg
	}},
	{"rxw", func(tb testing.TB) Config {
		cfg := baseConfig(tb)
		cfg.Horizon, cfg.PullPolicyName = 2000, "rxw"
		return cfg
	}},
}

// reuseRun is one run's observable output: its metrics, and its events when
// it was traced.
type reuseRun struct {
	metrics *Metrics
	events  []trace.Event
}

func runForReuse(t *testing.T, cfg Config) reuseRun {
	t.Helper()
	m, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	out := reuseRun{metrics: m}
	if buf, ok := cfg.Tracer.(*trace.Buffer); ok {
		out.events = buf.Events
	}
	return out
}

// TestRunReuseInvisible runs the reuse cells back to back in one process,
// so each run starts from the storage the run before it released, and
// checks that every run reproduces its config's cold run — one started
// after two collections emptied every pool — metric for metric and event
// for event. A released entry that kept its requests, or a waiter row that
// kept its waiters, is served again in the next run and shows here.
func TestRunReuseInvisible(t *testing.T) {
	// One P: a pooled item is put on the P that ran the last run, and a
	// goroutine that moved to another P would not find it.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	cold := make([]reuseRun, len(reuseCells))
	for i, c := range reuseCells {
		runtime.GC() // the first collection moves pooled items aside,
		runtime.GC() // the second drops them
		cold[i] = runForReuse(t, c.config(t))
	}
	for _, i := range []int{0, 1, 2, 3, 4, 0} {
		c := reuseCells[i]
		got := runForReuse(t, c.config(t))
		if g, w := got.metrics, cold[i].metrics; !reflect.DeepEqual(g, w) {
			t.Errorf("%s: metrics after a reused run differ from the cold run", c.name)
			for k := range w.PerClass {
				if !reflect.DeepEqual(g.PerClass[k], w.PerClass[k]) {
					t.Errorf("class %d:\n got %+v\nwant %+v", k, *g.PerClass[k], *w.PerClass[k])
				}
			}
		}
		if !reflect.DeepEqual(got.events, cold[i].events) {
			t.Errorf("%s: %d events after a reused run differ from the cold run's %d", c.name, len(got.events), len(cold[i].events))
		}
	}
}
