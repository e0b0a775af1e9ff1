package sim

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"hybridqos/internal/catalog"
	"hybridqos/internal/clients"
	"hybridqos/internal/core"
)

func baseConfig(t *testing.T) core.Config {
	t.Helper()
	cat, err := catalog.Generate(catalog.PaperConfig(0.6, 42))
	if err != nil {
		t.Fatal(err)
	}
	cl, err := clients.New(clients.PaperConfig())
	if err != nil {
		t.Fatal(err)
	}
	return core.Config{
		Catalog:        cat,
		Classes:        cl,
		Lambda:         5,
		Cutoff:         40,
		Alpha:          0.5,
		Horizon:        3000,
		WarmupFraction: 0.1,
		Seed:           100,
	}
}

func TestRunReplicationsErrors(t *testing.T) {
	cfg := baseConfig(t)
	if _, err := RunReplications(cfg, 0, nil); err == nil {
		t.Fatal("reps=0 accepted")
	}
	cfg.Lambda = -1
	if _, err := RunReplications(cfg, 2, nil); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestRunReplicationsDeterministic(t *testing.T) {
	cfg := baseConfig(t)
	a, err := RunReplications(cfg, 6, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunReplications(cfg, 6, nil)
	if err != nil {
		t.Fatal(err)
	}
	for c := range a.PerClass {
		if a.PerClass[c].Delay.Mean() != b.PerClass[c].Delay.Mean() {
			t.Fatalf("class %d delay differs across identical replication sets", c)
		}
		if a.PerClass[c].Served != b.PerClass[c].Served {
			t.Fatalf("class %d served counts differ", c)
		}
	}
	if a.OverallDelay.Mean() != b.OverallDelay.Mean() {
		t.Fatal("overall delay differs")
	}
}

func TestReplicationsActuallyIndependent(t *testing.T) {
	cfg := baseConfig(t)
	s, err := RunReplications(cfg, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.Replications != 8 {
		t.Fatalf("Replications = %d", s.Replications)
	}
	// Eight replications of a stochastic system must show variance.
	if _, hw := s.OverallDelay.CI95(); math.IsNaN(hw) || hw == 0 {
		t.Fatalf("replication CI half-width %g — seeds not varied?", hw)
	}
	if s.OverallDelay.N() != 8 {
		t.Fatalf("overall delay N = %d", s.OverallDelay.N())
	}
}

func TestSummaryAggregates(t *testing.T) {
	cfg := baseConfig(t)
	s, err := RunReplications(cfg, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.PerClass) != 3 {
		t.Fatalf("%d class summaries", len(s.PerClass))
	}
	for c, cs := range s.PerClass {
		if cs.Served == 0 {
			t.Fatalf("class %d served 0", c)
		}
		if cs.Dropped != 0 {
			t.Fatalf("class %d dropped without bandwidth constraint", c)
		}
		if math.IsNaN(cs.Delay.Mean()) || cs.Delay.Mean() <= 0 {
			t.Fatalf("class %d delay %g", c, cs.Delay.Mean())
		}
		wantCost := cs.Weight * cs.Delay.Mean()
		// Cost is collected per replication; its mean is close to (not
		// exactly) weight × mean delay. Loose agreement check.
		if math.Abs(cs.Cost.Mean()-wantCost)/wantCost > 0.05 {
			t.Fatalf("class %d cost %g vs weight·delay %g", c, cs.Cost.Mean(), wantCost)
		}
	}
	if s.MeanDelay(0) != s.PerClass[0].Delay.Mean() {
		t.Fatal("MeanDelay accessor wrong")
	}
	if s.MeanCost(1) != s.PerClass[1].Cost.Mean() {
		t.Fatal("MeanCost accessor wrong")
	}
	if s.PushBroadcasts == 0 || s.PullTransmissions == 0 {
		t.Fatal("pooled transmission counts empty")
	}
}

func TestCIWidthShrinksWithReps(t *testing.T) {
	cfg := baseConfig(t)
	few, err := RunReplications(cfg, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	many, err := RunReplications(cfg, 16, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, hwFew := few.OverallDelay.CI95()
	_, hwMany := many.OverallDelay.CI95()
	if hwMany >= hwFew {
		t.Fatalf("CI half-width did not shrink: %g (4 reps) vs %g (16 reps)", hwFew, hwMany)
	}
}

func TestSweepCutoffs(t *testing.T) {
	cfg := baseConfig(t)
	points, err := SweepCutoffs(cfg, []int{20, 40, 60}, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("%d points", len(points))
	}
	for i, k := range []int{20, 40, 60} {
		if points[i].K != k {
			t.Fatalf("point %d has K=%d", i, points[i].K)
		}
		if points[i].Summary.Config.Cutoff != k {
			t.Fatalf("summary config cutoff %d", points[i].Summary.Config.Cutoff)
		}
	}
	if _, err := SweepCutoffs(cfg, nil, 3, nil); err == nil {
		t.Fatal("empty cutoffs accepted")
	}
}

func TestOptimalSelectors(t *testing.T) {
	cfg := baseConfig(t)
	points, err := SweepCutoffs(cfg, []int{10, 40, 90}, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	bestCost, err := OptimalByTotalCost(points)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range points {
		if p.Summary.TotalCost.Mean() < bestCost.Summary.TotalCost.Mean() {
			t.Fatalf("OptimalByTotalCost missed K=%d", p.K)
		}
	}
	bestDelay, err := OptimalByOverallDelay(points)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range points {
		if p.Summary.OverallDelay.Mean() < bestDelay.Summary.OverallDelay.Mean() {
			t.Fatalf("OptimalByOverallDelay missed K=%d", p.K)
		}
	}
	if _, err := OptimalByTotalCost(nil); err == nil {
		t.Fatal("empty points accepted")
	}
	// A point with no samples (NaN cost) loses to any finite one, and a tie
	// keeps the incumbent, i.e. the smaller K.
	costed := func(k int, costs ...float64) SweepPoint {
		s := &Summary{}
		for _, c := range costs {
			s.TotalCost.Add(c)
		}
		return SweepPoint{K: k, Summary: s}
	}
	best, err := OptimalByTotalCost([]SweepPoint{costed(10), costed(20, 5), costed(30, 5), costed(40)})
	if err != nil {
		t.Fatal(err)
	}
	if best.K != 20 {
		t.Fatalf("NaN/tie selection picked K=%d, want 20", best.K)
	}
}

func TestWorkersAtLeastOne(t *testing.T) {
	if Workers() < 1 {
		t.Fatal("Workers < 1")
	}
}

func TestSetWorkersRoundTrip(t *testing.T) {
	prev := SetWorkers(3)
	defer SetWorkers(prev)
	if Workers() != 3 {
		t.Fatalf("Workers = %d after SetWorkers(3)", Workers())
	}
	if p := SetWorkers(prev); p != 3 {
		t.Fatalf("SetWorkers returned %d, want 3", p)
	}
	SetWorkers(prev)
}

// TestSweepConfigsMatchesPerPointRuns pins the tentpole contract: flattening
// (point × replication) into the shared pool must be bit-identical to
// running each point on its own, at any worker count.
func TestSweepConfigsMatchesPerPointRuns(t *testing.T) {
	cfg := baseConfig(t)
	cfgs := make([]core.Config, 3)
	for i, k := range []int{20, 40, 60} {
		cfgs[i] = cfg
		cfgs[i].Cutoff = k
	}
	swept, err := SweepConfigs(cfgs, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cfgs {
		solo, err := RunReplications(cfgs[i], 3, nil)
		if err != nil {
			t.Fatal(err)
		}
		if swept[i].OverallDelay.Mean() != solo.OverallDelay.Mean() {
			t.Fatalf("point %d overall delay differs: %x vs %x",
				i, swept[i].OverallDelay.Mean(), solo.OverallDelay.Mean())
		}
		for c := range solo.PerClass {
			if swept[i].PerClass[c].Served != solo.PerClass[c].Served {
				t.Fatalf("point %d class %d served differs", i, c)
			}
		}
	}
}

func TestSweepConfigsPointError(t *testing.T) {
	cfg := baseConfig(t)
	bad := cfg
	bad.Lambda = -1
	_, err := SweepConfigs([]core.Config{cfg, bad}, 2, nil)
	if err == nil {
		t.Fatal("invalid point accepted")
	}
	var pe *PointError
	if !errors.As(err, &pe) {
		t.Fatalf("error %T is not *PointError", err)
	}
	if pe.Point != 1 {
		t.Fatalf("PointError.Point = %d, want 1", pe.Point)
	}
}

func TestPooledDelayHistogram(t *testing.T) {
	cfg := baseConfig(t)
	s, err := RunReplications(cfg, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	for c, cs := range s.PerClass {
		if int64(cs.DelayHist.N()) != cs.Served {
			t.Fatalf("class %d: hist N %d vs served %d", c, cs.DelayHist.N(), cs.Served)
		}
		p50, p95 := cs.DelayHist.Percentile(50), cs.DelayHist.Percentile(95)
		if !(p50 > 0 && p95 >= p50) {
			t.Fatalf("class %d: P50 %g P95 %g", c, p50, p95)
		}
	}
}

// TestParallelWorkersBitIdentical is the determinism-under-parallelism
// gate: the same sweep at workers=1 and workers=N must produce bit-for-bit
// identical summaries, including bounded-histogram percentiles.
func TestParallelWorkersBitIdentical(t *testing.T) {
	cfg := baseConfig(t)
	cfg.DelayHistBound = 512
	ks := []int{10, 30, 50, 70}

	sweep := func(workers int) []SweepPoint {
		prev := SetWorkers(workers)
		defer SetWorkers(prev)
		points, err := SweepCutoffs(cfg, ks, 3, nil)
		if err != nil {
			t.Fatal(err)
		}
		return points
	}
	seq := sweep(1)
	par := sweep(8)

	for i := range ks {
		a, b := seq[i].Summary, par[i].Summary
		if a.OverallDelay.Mean() != b.OverallDelay.Mean() {
			t.Fatalf("K=%d overall delay differs: %x vs %x", ks[i], a.OverallDelay.Mean(), b.OverallDelay.Mean())
		}
		if a.TotalCost.Mean() != b.TotalCost.Mean() {
			t.Fatalf("K=%d total cost differs", ks[i])
		}
		if a.PullTransmissions != b.PullTransmissions || a.PushBroadcasts != b.PushBroadcasts {
			t.Fatalf("K=%d transmission counts differ", ks[i])
		}
		for c := range a.PerClass {
			ca, cb := a.PerClass[c], b.PerClass[c]
			if ca.Served != cb.Served || ca.Dropped != cb.Dropped {
				t.Fatalf("K=%d class %d counts differ", ks[i], c)
			}
			if ca.Delay.Mean() != cb.Delay.Mean() {
				t.Fatalf("K=%d class %d delay differs: %x vs %x", ks[i], c, ca.Delay.Mean(), cb.Delay.Mean())
			}
			if ca.DelayHist.N() != cb.DelayHist.N() {
				t.Fatalf("K=%d class %d hist N differs", ks[i], c)
			}
			for _, p := range []float64{50, 95, 99} {
				pa, pb := ca.DelayHist.Percentile(p), cb.DelayHist.Percentile(p)
				if pa != pb {
					t.Fatalf("K=%d class %d P%g differs: %x vs %x", ks[i], c, p, pa, pb)
				}
			}
		}
	}
}

// TestBoundedDelayHistKeepsTrueCounts checks the bounded reservoir through
// the replication pipeline: each replication's histograms are bounded (the
// pooled samples differ from an exact run's), N() still equals Served and
// percentiles stay ordered. The retention cap itself is pinned in
// internal/stats.
func TestBoundedDelayHistKeepsTrueCounts(t *testing.T) {
	cfg := baseConfig(t)
	exact, err := RunReplications(cfg, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg.DelayHistBound = 128
	s, err := RunReplications(cfg, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	for c, cs := range s.PerClass {
		if int64(cs.DelayHist.N()) != cs.Served {
			t.Fatalf("class %d: hist N %d vs served %d", c, cs.DelayHist.N(), cs.Served)
		}
		if cs.Served <= 3*128 {
			t.Fatalf("class %d: %d served across 3 reps cannot exercise bound 128", c, cs.Served)
		}
		if reflect.DeepEqual(cs.DelayHist, exact.PerClass[c].DelayHist) {
			t.Fatalf("class %d: bounded run pooled the same samples as the exact run", c)
		}
		p50, p95 := cs.DelayHist.Percentile(50), cs.DelayHist.Percentile(95)
		if !(p50 > 0 && p95 >= p50) {
			t.Fatalf("class %d: P50 %g P95 %g", c, p50, p95)
		}
	}
}
