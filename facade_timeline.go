package hybridqos

import (
	"errors"
	"fmt"
	"os"

	"hybridqos/internal/trace"
)

// TimelineArtifacts describes the files ExportTimeline wrote and the audit
// that preceded them.
type TimelineArtifacts struct {
	// Snapshots is the number of embedded telemetry snapshots, every one of
	// which was reproduced exactly by an independent event replay before any
	// artefact was written.
	Snapshots int
	// Ticks is the number of timeline rows (one per snapshot).
	Ticks int
	// Classes is the number of service classes with delay observations.
	Classes int
	// CSV, DelaySVG and QueueSVG are the written file paths.
	CSV, DelaySVG, QueueSVG string
}

// ExportTimeline reads a JSONL trace written by WriteTrace with
// Config.Telemetry set, audits every embedded snapshot bit-for-bit against an
// independent replay of the trace's events, and lowers the snapshot stream to
// time series: <prefix>.csv (per-class windowed p50/p95/p99 delay, served
// counts and queue gauges at every snapshot tick), <prefix>-delay.svg and
// <prefix>-queue.svg. It fails if the trace carries no snapshots or if any
// snapshot disagrees with the replay.
func ExportTimeline(tracePath, prefix string) (*TimelineArtifacts, error) {
	f, err := os.Open(tracePath)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	events, err := trace.Read(f)
	if err != nil {
		return nil, err
	}
	x, err := trace.WriteTimeline(events, prefix)
	var audit *trace.AuditError
	switch {
	case errors.Is(err, trace.ErrNoSnapshots):
		return nil, fmt.Errorf("hybridqos: no telemetry snapshots in %s; run WriteTrace with Config.Telemetry set", tracePath)
	case errors.As(err, &audit):
		return nil, fmt.Errorf("hybridqos: snapshot audit failed: %w", audit.Err)
	case err != nil:
		return nil, err
	}
	return &TimelineArtifacts{
		Snapshots: x.Snapshots,
		Ticks:     x.Timeline.Ticks(),
		Classes:   len(x.Timeline.PerClass),
		CSV:       x.CSV,
		DelaySVG:  x.DelaySVG,
		QueueSVG:  x.QueueSVG,
	}, nil
}
