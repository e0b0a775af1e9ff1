package core

import (
	"bytes"
	"math"
	"testing"

	"hybridqos/internal/bandwidth"
	"hybridqos/internal/trace"
)

// bandwidthStarved returns a config that guarantees blocking.
func bandwidthStarved() bandwidth.Config {
	return bandwidth.Config{Total: 3, Fractions: []float64{0.34, 0.33, 0.33}, DemandMean: 3}
}

func TestTraceCountsMatchMetrics(t *testing.T) {
	cfg := baseConfig(t)
	counter := trace.NewCounter()
	cfg.Tracer = counter
	m, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if counter.Count(trace.KindPushComplete) != m.PushBroadcasts {
		t.Fatalf("push-complete events %d vs metric %d",
			counter.Count(trace.KindPushComplete), m.PushBroadcasts)
	}
	if counter.Count(trace.KindPullComplete) != m.PullTransmissions {
		t.Fatalf("pull-complete events %d vs metric %d",
			counter.Count(trace.KindPullComplete), m.PullTransmissions)
	}
	var served int64
	for _, cm := range m.PerClass {
		served += cm.Served
	}
	if counter.Count(trace.KindServed) != served {
		t.Fatalf("served events %d vs metric %d", counter.Count(trace.KindServed), served)
	}
	// Every pull transmission must have been started.
	if counter.Count(trace.KindPullStart) != counter.Count(trace.KindPullComplete) {
		t.Fatalf("pull starts %d != completes %d",
			counter.Count(trace.KindPullStart), counter.Count(trace.KindPullComplete))
	}
}

func TestTraceReplayAuditsLiveCollectors(t *testing.T) {
	// The JSONL trace replayed offline must reproduce the live per-class
	// delay means exactly.
	cfg := baseConfig(t)
	cfg.Horizon = 4000
	var buf bytes.Buffer
	j := trace.NewJSONL(&buf)
	cfg.Tracer = j
	m, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}
	events, err := trace.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := trace.Replay(events, len(m.PerClass))
	if err != nil {
		t.Fatal(err)
	}
	for c, cm := range m.PerClass {
		if replayed[c].Served != cm.Served {
			t.Fatalf("class %d: replay served %d vs live %d", c, replayed[c].Served, cm.Served)
		}
		if cm.Served > 0 && math.Abs(replayed[c].MeanDelay()-cm.Delay.Mean()) > 1e-9 {
			t.Fatalf("class %d: replay delay %g vs live %g",
				c, replayed[c].MeanDelay(), cm.Delay.Mean())
		}
	}
}

func TestTraceBlockedEvents(t *testing.T) {
	cfg := baseConfig(t)
	bw := bandwidthStarved()
	cfg.Bandwidth = &bw
	counter := trace.NewCounter()
	cfg.Tracer = counter
	m, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if counter.Count(trace.KindBlocked) != m.BlockedTransmissions {
		t.Fatalf("blocked events %d vs metric %d",
			counter.Count(trace.KindBlocked), m.BlockedTransmissions)
	}
	if m.BlockedTransmissions == 0 {
		t.Fatal("expected blocking under starved bandwidth")
	}
}

// forward passes every event on, as a timing wrapper in front of a
// recording sink does.
type forward struct{ next trace.Tracer }

func (f forward) Event(e trace.Event) { f.next.Event(e) }

// TestRunCompletesWrappedBuffer: after Run, a trace.Buffer holds exactly
// the events a JSONL of the same run writes, whether the Buffer is the
// tracer or sits behind a forwarding one: Finish's run-end mark flushes it
// and is recorded by neither.
func TestRunCompletesWrappedBuffer(t *testing.T) {
	cfg := baseConfig(t)
	cfg.Horizon = 4000
	var w bytes.Buffer
	j := trace.NewJSONL(&w)
	cfg.Tracer = j
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}
	want, err := trace.Read(&w)
	if err != nil {
		t.Fatal(err)
	}
	for _, wrapped := range []bool{false, true} {
		buf := &trace.Buffer{}
		cfg.Tracer = buf
		if wrapped {
			cfg.Tracer = forward{buf}
		}
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
		if len(buf.Events) != len(want) {
			t.Fatalf("wrapped=%v: Buffer holds %d events, JSONL wrote %d", wrapped, len(buf.Events), len(want))
		}
		for i := range want {
			if buf.Events[i] != want[i] {
				t.Fatalf("wrapped=%v: event %d = %+v, JSONL wrote %+v", wrapped, i, buf.Events[i], want[i])
			}
		}
	}
}
