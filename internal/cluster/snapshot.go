package cluster

import (
	"fmt"
	"reflect"
)

// satState is one cell's saturation detector: a streak counter over barrier
// load samples. A cell is saturated once its pending load has been at or
// above the configured high-water mark for the configured number of
// consecutive barriers; the onset time is the barrier that completed the
// streak. Saturation latches — a later recovery clears the streak but not
// the flag, because the question the detector answers is "did this cell ever
// stop keeping up, and when".
type satState struct {
	saturated bool
	streak    int
	onsetT    float64
}

// observe folds one barrier load sample into the detector.
func (s *satState) observe(load int, t float64, threshold, needed int) {
	if load >= threshold {
		s.streak++
		if !s.saturated && s.streak >= needed {
			s.saturated = true
			s.onsetT = t
		}
	} else {
		s.streak = 0
	}
}

// onset returns the saturation onset time, -1 when the detector never fired.
func (s *satState) onset() float64 {
	if !s.saturated {
		return -1
	}
	return s.onsetT
}

// CellSnap is one cell's state in a cluster Snapshot: the barrier load
// sample, the saturation detector, and the monotone handoff/arrival
// counters. Every field is deterministic, so two runs of the same
// configuration produce identical snapshots — which is exactly what Resume
// verifies.
type CellSnap struct {
	Cell             int     `json:"cell"`
	Load             int     `json:"load"`
	Saturated        bool    `json:"saturated,omitempty"`
	SaturationStreak int     `json:"saturation_streak,omitempty"`
	SaturatedAt      float64 `json:"saturated_at"` // -1 when never saturated
	HandoffsIn       int64   `json:"handoffs_in"`
	HandoffsOut      int64   `json:"handoffs_out"`
	HandoffRefusals  int64   `json:"handoff_refusals"`
	Arrivals         int64   `json:"arrivals"`
}

// Snapshot is a cluster-level checkpoint taken at a handoff barrier.
type Snapshot struct {
	// Epoch is the number of completed epochs when the snapshot was taken.
	Epoch int `json:"epoch"`
	// T is the barrier time.
	T float64 `json:"t"`
	// Cells holds one entry per cell, cell 0 first.
	Cells []CellSnap `json:"cells"`
}

// takeSnapshot captures the cluster's barrier state at time t. Called inside
// the barrier, after saturation observation and mobility exchange, so loads
// reflect post-exchange backlogs.
//
//qos:barrier
func (c *Cluster) takeSnapshot(t float64) Snapshot {
	snap := Snapshot{Epoch: c.epoch, T: t}
	for _, cs := range c.cells {
		m := cs.srv.Peek()
		var arrivals, handoffsOut int64
		for _, cm := range m.PerClass {
			arrivals += cm.Arrivals
			handoffsOut += cm.HandoffsOut
		}
		snap.Cells = append(snap.Cells, CellSnap{
			Cell:             cs.id,
			Load:             cs.srv.PendingLoad(),
			Saturated:        cs.sat.saturated,
			SaturationStreak: cs.sat.streak,
			SaturatedAt:      cs.sat.onset(),
			HandoffsIn:       m.TotalHandoffs(),
			HandoffsOut:      handoffsOut,
			HandoffRefusals:  m.TotalHandoffRefusals(),
			Arrivals:         arrivals,
		})
	}
	return snap
}

// TakeSnapshot captures the cluster's current barrier state on demand (in
// addition to the periodic SnapshotEveryEpochs snapshots). Call it between
// Step calls, never concurrently with one.
func (c *Cluster) TakeSnapshot() Snapshot { return c.takeSnapshot(c.now) }

// Resume rebuilds a cluster from its configuration and replays it to the
// snapshot's epoch, verifying bit-for-bit that the replayed state matches
// the checkpoint before handing the live cluster back for continued
// stepping. The engine is deterministic, so re-simulation IS restoration —
// and the verification turns any divergence (a changed config, a
// nondeterministic component) into an immediate error instead of a silently
// wrong continuation.
//
//lint:allow deadcode replay audit: TestSnapshotResume re-simulates to a snapshot and compares it bit for bit
func Resume(cfg Config, snap Snapshot) (*Cluster, error) {
	if snap.Epoch < 1 {
		return nil, fmt.Errorf("cluster: cannot resume from epoch %d", snap.Epoch)
	}
	c, err := New(cfg)
	if err != nil {
		return nil, err
	}
	for c.epoch < snap.Epoch {
		done, err := c.Step()
		if err != nil {
			return nil, err
		}
		if done && c.epoch < snap.Epoch {
			return nil, fmt.Errorf("cluster: horizon reached at epoch %d before snapshot epoch %d", c.epoch, snap.Epoch)
		}
	}
	got := c.takeSnapshot(c.now)
	if !reflect.DeepEqual(got, snap) {
		return nil, fmt.Errorf("cluster: resume diverged at epoch %d: replayed %+v, snapshot %+v", snap.Epoch, got, snap)
	}
	return c, nil
}
