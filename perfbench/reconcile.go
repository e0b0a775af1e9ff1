package main

import (
	"fmt"
	"math"
)

// Reconciliation tolerance. A layer timed both in situ (a timing wrapper
// around each call, one clock read's cost subtracted) and in isolation (a
// replay of the run's own inputs) reconciles when the two per-call costs
// agree within a factor of reconcileFactor, widened on each side by the
// timing method's own error as measured in the same run
// (layerCost.slackNs).
//
// Both sides are timed the same way where calls are short: the replay of a
// per-arrival model times each call with the same stopwatch, between slices
// of unrelated work (coldReplay), so it meets the caches and branch history
// an in-situ call meets between the engine's other work. A batch replay of
// the same calls ran 2–4× faster than in situ. The serving engine's Serve, in
// situ on a clock loop woken from idle for each request, is replayed after a
// walk over evictBytes, which leaves it as cold.
//
// The factor is 3, not tighter, because the two sides still differ: the
// replay's interleaved work is not the engine's, and an in-situ call's
// neighbours differ from call to call.
const (
	reconcileFactor = 3.0
	evictBytes      = 4 << 20
)

// layerCost is one layer's per-call cost measured both ways.
type layerCost struct {
	name     string
	calls    int64
	insituNs float64 // per call, timer cost subtracted
	isoNs    float64 // per call, replay
	// slackNs is the timing method's own error per call: how much the cost
	// of one clock read, which each timing subtracts, differed between the
	// run's stopwatches.
	slackNs float64
}

// deviation is |in situ − isolated| as a share of the isolated cost.
func (l layerCost) deviation() float64 {
	if l.isoNs <= 0 {
		return math.Abs(l.insituNs)
	}
	return math.Abs(l.insituNs-l.isoNs) / l.isoNs
}

// reconciles reports whether the two measurements agree within tolerance.
func (l layerCost) reconciles() bool {
	lo := l.isoNs/reconcileFactor - l.slackNs
	hi := l.isoNs*reconcileFactor + l.slackNs
	return l.insituNs >= lo && l.insituNs <= hi
}

// reconcile checks every layer, records failures on res, and returns the
// largest deviation and a table for the provenance line.
func reconcile(res *result, layers []layerCost) (float64, []map[string]any) {
	worst := 0.0
	var table []map[string]any
	for _, l := range layers {
		if l.calls == 0 {
			continue
		}
		res.attempted++
		ok := l.reconciles()
		if !ok {
			res.fail("reconciliation: %s in situ %.1f ns/call vs isolated %.1f ns/call (slack %.1f ns) over %d calls",
				l.name, l.insituNs, l.isoNs, l.slackNs, l.calls)
		}
		worst = math.Max(worst, l.deviation())
		table = append(table, map[string]any{
			"layer": l.name, "calls": l.calls,
			"insitu_ns": round1(l.insituNs), "isolated_ns": round1(l.isoNs),
			"slack_ns": round1(l.slackNs), "ok": ok,
		})
	}
	return worst, table
}

// readSpread is the range of the clock read's measured cost over the
// stopwatches that timed any call: the slack of a per-call timing.
func readSpread(sws ...*stopwatch) float64 {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, sw := range sws {
		if sw.calls > 0 {
			lo, hi = math.Min(lo, sw.readNs()), math.Max(hi, sw.readNs())
		}
	}
	return math.Max(0, hi-lo)
}

func round1(x float64) float64 { return math.Round(x*10) / 10 }

// attribute returns the unattributed remainder of an end-to-end cost per
// request after subtracting every layer's isolated cost × its count per
// request, and its share of the whole.
func attribute(totalNs float64, parts map[string]float64) (selfNs, share float64, err error) {
	if totalNs <= 0 {
		return 0, 0, fmt.Errorf("attribute: end-to-end cost %g", totalNs)
	}
	selfNs = totalNs
	for _, part := range parts {
		selfNs -= part
	}
	return selfNs, selfNs / totalNs, nil
}
