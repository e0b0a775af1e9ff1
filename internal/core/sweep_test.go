package core_test

import (
	"math"
	"testing"

	"hybridqos/internal/core"
	"hybridqos/internal/sim"
)

// Cutoff sweeps over a core configuration run through sim.SweepCutoffs; the
// range checks on each cutoff are core's own config validation.
func TestSweepErrors(t *testing.T) {
	cfg := cellBase(t)
	if _, err := sim.SweepCutoffs(cfg, nil, 1, nil); err == nil {
		t.Fatal("empty cutoff list accepted")
	}
	if _, err := sim.SweepCutoffs(cfg, []int{-1, 10}, 1, nil); err == nil {
		t.Fatal("negative cutoff accepted")
	}
	if _, err := sim.SweepCutoffs(cfg, []int{10, cfg.Catalog.D() + 1}, 1, nil); err == nil {
		t.Fatal("cutoff beyond the catalog accepted")
	}
	cfg.Catalog = nil
	if _, err := sim.SweepCutoffs(cfg, []int{10}, 1, nil); err == nil {
		t.Fatal("nil catalog accepted")
	}
}

// A run that served nothing has a NaN overall delay; when picking the best
// cutoff such a point loses to any finite one, and a tie keeps the
// incumbent, i.e. the smaller K.
func TestBetterHandlesNaN(t *testing.T) {
	empty := (&core.Metrics{}).OverallMeanDelay()
	if !math.IsNaN(empty) {
		t.Fatalf("no served requests gave overall delay %g, want NaN", empty)
	}
	point := func(k int, delays ...float64) sim.SweepPoint {
		s := &sim.Summary{}
		for _, d := range delays {
			s.OverallDelay.Add(d)
		}
		return sim.SweepPoint{K: k, Summary: s}
	}
	cases := []struct {
		name   string
		points []sim.SweepPoint
		want   int
	}{
		{"NaN loses to finite", []sim.SweepPoint{point(10, empty), point(20, 1)}, 20},
		{"finite beats later NaN", []sim.SweepPoint{point(10, 1), point(20, empty)}, 10},
		{"tie keeps smaller K", []sim.SweepPoint{point(10, 2), point(20, 2)}, 10},
	}
	for _, c := range cases {
		best, err := sim.OptimalByOverallDelay(c.points)
		if err != nil {
			t.Fatal(err)
		}
		if best.K != c.want {
			t.Errorf("%s: picked K=%d, want %d", c.name, best.K, c.want)
		}
	}
}
