package trace

import (
	"errors"
	"fmt"

	"hybridqos/internal/telemetry"
)

// Apply folds one event into a telemetry collector. This is the single
// definition of the event → metric mapping: the live engine routes every
// emitted event through it, and VerifySnapshots replays a recorded stream
// through it, so the two sides agree by construction. Gauge-backed metrics
// (queue depth, bandwidth occupancy) sample live engine state and are not
// derivable from events; the engine feeds those to the collector directly
// and the replay audit excludes them.
func Apply(c *telemetry.Collector, e Event) {
	if c == nil {
		return
	}
	switch e.Kind {
	case KindArrival:
		c.Arrival(int(e.Class))
	case KindServed:
		c.Served(int(e.Class), e.T-e.Arrival, e.Push)
	case KindPushComplete:
		c.PushComplete()
	case KindPullComplete:
		c.PullComplete()
	case KindBlocked:
		c.Blocked(int(e.Class), int(e.Requests))
	case KindCorrupt:
		c.Corrupt(e.Push)
	case KindRetry:
		c.Retry(int(e.Class))
	case KindShed:
		c.Shed(int(e.Class))
	case KindExpired:
		c.Expired(int(e.Class))
	case KindRateLimited:
		c.RateLimited(int(e.Class))
	case KindQuotaExceeded:
		c.QuotaExceeded(int(e.Class))
	case KindHandoff:
		c.Handoff(int(e.Class))
	case KindHandoffRefused:
		c.HandoffRefused(int(e.Class))
	case KindSpanEnd:
		// Span provenance is additive: every metric increment already rides
		// on a primary kind, so span events only contribute exemplars —
		// sampled span IDs attached to the delay-histogram bucket the served
		// request landed in. Exemplar state is excluded from DiffReplay
		// (like gauges), so replay audits are unaffected.
		if e.Reason == EndServed {
			c.Exemplar(int(e.Class), e.T-e.Arrival, e.Req)
		}
	}
}

// Snapshots extracts the embedded telemetry snapshots from an event stream,
// in trace order.
func Snapshots(events []Event) []*telemetry.Snapshot {
	var out []*telemetry.Snapshot
	for _, e := range events {
		if e.Kind == KindSnapshot && e.Snap != nil {
			out = append(out, e.Snap)
		}
	}
	return out
}

// VerifySnapshots replays an event stream through a fresh collector and
// cross-checks every embedded snapshot against the replayed state — the
// counters and histogram buckets must match bit-for-bit. It returns the
// number of snapshots verified; the first divergence (or a KindSnapshot
// event with no payload) errors. A trace with no snapshots verifies
// vacuously with count 0.
func VerifySnapshots(events []Event) (int, error) {
	c, err := telemetry.New(telemetry.Options{})
	if err != nil {
		return 0, err
	}
	verified := 0
	for i, e := range events {
		if e.Kind != KindSnapshot {
			Apply(c, e)
			continue
		}
		if e.Snap == nil {
			return verified, fmt.Errorf("trace: event %d: snapshot event without payload", i)
		}
		got := c.TakeSnapshot(e.T)
		if err := telemetry.DiffReplay(got, e.Snap); err != nil {
			return verified, fmt.Errorf("trace: snapshot %d (t=%g): %w", e.Snap.Seq, e.T, err)
		}
		verified++
	}
	return verified, nil
}

// ErrNoSnapshots is WriteTimeline's error for a trace that embeds no
// telemetry snapshots.
var ErrNoSnapshots = errors.New("trace: no telemetry snapshots")

// AuditError is WriteTimeline's error for an embedded snapshot that the
// event replay did not reproduce; Err is VerifySnapshots' error.
type AuditError struct{ Err error }

func (e *AuditError) Error() string { return "snapshot audit failed: " + e.Err.Error() }

func (e *AuditError) Unwrap() error { return e.Err }

// TimelineExport is what WriteTimeline wrote: the number of snapshots the
// replay reproduced, the timeline they were lowered to, and the file paths.
type TimelineExport struct {
	Snapshots int
	Timeline  *telemetry.Timeline
	telemetry.Artifacts
}

// WriteTimeline audits every telemetry snapshot embedded in events against
// an event replay (VerifySnapshots), lowers the snapshots to a timeline and
// writes its CSV and SVG artefacts under prefix (telemetry.WriteArtifacts).
// Nothing is written unless the trace has snapshots (else ErrNoSnapshots)
// and the replay reproduces every one (else an *AuditError).
func WriteTimeline(events []Event, prefix string) (*TimelineExport, error) {
	snaps := Snapshots(events)
	if len(snaps) == 0 {
		return nil, ErrNoSnapshots
	}
	n, err := VerifySnapshots(events)
	if err != nil {
		return nil, &AuditError{Err: err}
	}
	tl, err := telemetry.BuildTimeline(snaps)
	if err != nil {
		return nil, err
	}
	a, err := telemetry.WriteArtifacts(tl, prefix)
	if err != nil {
		return nil, err
	}
	return &TimelineExport{Snapshots: n, Timeline: tl, Artifacts: a}, nil
}
