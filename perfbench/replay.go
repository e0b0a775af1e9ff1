package main

import (
	"runtime"
	"time"

	"hybridqos/internal/catalog"
	"hybridqos/internal/clients"
	"hybridqos/internal/event"
	"hybridqos/internal/pullqueue"
	"hybridqos/internal/sched"
	"hybridqos/internal/telemetry"
	"hybridqos/internal/trace"
)

// minReplay is the least wall time an isolated replay is repeated for, so
// its ns/op is a mean over enough work to be steady.
const minReplay = 20 * time.Millisecond

// repeatFor runs pass (which reports how many operations it did) until
// passes have taken minReplay and returns the mean ns per operation. Each
// pass starts from a collected heap, the collection outside its timing.
func repeatFor(pass func() int) float64 {
	var ops int
	var spent time.Duration
	for ops == 0 || spent < minReplay {
		runtime.GC()
		t0 := time.Now()
		ops += pass()
		spent += time.Since(t0)
	}
	return float64(spent) / float64(ops)
}

// coldReplayCalls caps how many calls coldReplay times; coldReplayWork is
// the calibration kernel's operations between two calls (~2 µs, about the
// engine's work per arrival).
const (
	coldReplayCalls = 20000
	coldReplayWork  = 32
)

// coldReplay times up to coldReplayCalls calls one by one with a stopwatch,
// as the in-situ wrappers time them, running a slice of the calibration
// kernel between calls.
func coldReplay(calls int, call func()) *stopwatch {
	sw := &stopwatch{}
	cal := newCalibrator()
	for i := 0; i < min(calls, coldReplayCalls); i++ {
		cal.work(coldReplayWork)
		t0 := time.Now()
		call()
		sw.add(t0)
	}
	return sw
}

// pullOp is one captured pull-queue operation: an Add of a request or an
// extraction at a time.
type pullOp struct {
	add bool
	req pullqueue.Request
	now float64
}

// pullOps reconstructs the pull-queue operations of a run from its trace:
// an arrival of a pulled item adds (unless the shedder refused it), a pull
// start or block extracts. Retried re-requests re-enter at a time the trace
// does not record, so the replay leaves them out.
func pullOps(events []trace.Event, cls *clients.Classification, cutoff int) []pullOp {
	var ops []pullOp
	var pend *pullOp
	commit := func() {
		if pend != nil {
			ops = append(ops, *pend)
			pend = nil
		}
	}
	for _, e := range events {
		switch e.Kind {
		case trace.KindArrival:
			commit()
			if e.Item > cutoff {
				pend = &pullOp{add: true, now: e.T, req: pullqueue.Request{
					Item: e.Item, Class: e.Class, Priority: cls.Weight(e.Class),
					Arrival: e.T, Client: -1,
				}}
			}
		case trace.KindShed:
			if pend != nil && pend.req.Item == e.Item && pend.now == e.T {
				pend = nil
			}
		case trace.KindPullStart, trace.KindBlocked:
			commit()
			ops = append(ops, pullOp{now: e.T})
		}
	}
	commit()
	return ops
}

// pullReplay replays captured operations into a fresh selector for the
// policy, timing each Add and ExtractBest, and returns their mean costs
// with the timer's own cost taken out.
func pullReplay(ops []pullOp, cat *catalog.Catalog, pol sched.PullPolicy) (addNs, extractNs float64, err error) {
	var adds, extracts stopwatch
	start := time.Now()
	for adds.calls == 0 || time.Since(start) < minReplay {
		runtime.GC()
		sel, err := sched.NewSelector(pol)
		if err != nil {
			return 0, 0, err
		}
		for _, op := range ops {
			if op.add {
				length := cat.Length(op.req.Item)
				t0 := time.Now()
				sel.Add(op.req, length)
				adds.add(t0)
				continue
			}
			t0 := time.Now()
			e := sel.ExtractBest(op.now)
			extracts.add(t0)
			sel.Recycle(e)
		}
	}
	return adds.perCall(), extracts.perCall(), nil
}

// holdReplay is the classic hold model on event.Simulator: a pending set of
// the given size where every fired event schedules one successor, its gap
// cycling through the captured gap mix. It returns ns per fired event (one
// pop plus one schedule).
func holdReplay(pending int, gaps []float64) float64 {
	const ops = 1 << 16
	return repeatFor(func() int {
		sim := event.New()
		fired, gi := 0, 0
		next := func() float64 {
			g := gaps[gi]
			gi = (gi + 1) % len(gaps)
			return g
		}
		var h event.Handler
		h = func() {
			fired++
			if fired >= ops {
				sim.Stop()
				return
			}
			sim.After(next(), h)
		}
		for i := 0; i < pending; i++ {
			sim.After(next(), h)
		}
		sim.Run()
		return fired
	})
}

// applyReplay folds the captured events into a fresh telemetry collector
// through trace.Apply — what the live engine does per emitted event.
func applyReplay(events []trace.Event) (float64, error) {
	var err error
	ns := repeatFor(func() int {
		c, e := telemetry.New(telemetry.Options{})
		if e != nil {
			err = e
			return len(events)
		}
		for _, ev := range events {
			trace.Apply(c, ev)
		}
		return len(events)
	})
	return ns, err
}

// sinkReplay records the captured events into a fresh trace buffer.
func sinkReplay(events []trace.Event) float64 {
	return repeatFor(func() int {
		buf := &trace.Buffer{}
		for _, ev := range events {
			buf.Event(ev)
		}
		return len(events)
	})
}
