// Benchmarks regenerating every evaluation artefact of the paper (one bench
// per figure — the paper has no numbered tables; Figures 3–7 are its entire
// evaluation) plus the ablation benches DESIGN.md lists, and the tier-1
// allocation ceiling on the workload those benches share. Figure benches
// report the headline domain metric via b.ReportMetric so `go test -bench`
// output carries the reproduced numbers alongside the timing.
//
// Benchmark parameters are deliberately smaller than cmd/figures defaults so
// the suite completes quickly; cmd/figures regenerates the full-fidelity
// series.
package hybridqos

import (
	"runtime"
	"testing"
	"unsafe"

	"hybridqos/internal/analytic"
	"hybridqos/internal/bandwidth"
	"hybridqos/internal/cache"
	"hybridqos/internal/catalog"
	"hybridqos/internal/clients"
	"hybridqos/internal/core"
	"hybridqos/internal/experiments"
	"hybridqos/internal/sim"
	"hybridqos/internal/telemetry"
	"hybridqos/internal/trace"
	"hybridqos/internal/workload"
)

// benchParams are the reduced-fidelity experiment parameters for benches.
func benchParams() experiments.Params {
	p := experiments.Defaults()
	p.Horizon = 3000
	p.Replications = 1
	p.CutoffStep = 20
	return p
}

// BenchmarkFig3DelayVsCutoffAlpha0 regenerates Figure 3 (per-class delay vs
// cutoff at α=0 for four skew coefficients) and reports Class-A's minimum
// delay across the sweep.
func BenchmarkFig3DelayVsCutoffAlpha0(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := experiments.Fig3(benchParams())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(minY(b, f.Series[0].Y), "classA-min-delay")
	}
}

// BenchmarkFig4DelayVsCutoffAlpha1 regenerates Figure 4 (α=1, stretch-only).
func BenchmarkFig4DelayVsCutoffAlpha1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := experiments.Fig4(benchParams())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(minY(b, f.Series[0].Y), "classA-min-delay")
	}
}

// BenchmarkFig5PrioritizedCost regenerates Figure 5 (per-class prioritised
// cost vs cutoff, α∈{0.25,0.75}, θ=0.6).
func BenchmarkFig5PrioritizedCost(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := experiments.Fig5(benchParams())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(minY(b, f.Series[0].Y), "classA-min-cost")
	}
}

// BenchmarkFig6OptimalCost regenerates Figure 6 (total optimal prioritised
// cost vs α for three skews) and reports the θ=0.6 cost gap between α=1 and
// α=0 (positive = priority influence pays, the paper's claim).
func BenchmarkFig6OptimalCost(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := experiments.Fig6(benchParams())
		if err != nil {
			b.Fatal(err)
		}
		mid := f.Series[1].Y // θ=0.60
		b.ReportMetric(mid[len(mid)-1]-mid[0], "cost-gap-alpha1-vs-0")
	}
}

// BenchmarkFig7AnalyticVsSim regenerates Figure 7 (analytic vs simulated
// per-class delay, θ=0.6, α=0.75) and reports the worst relative deviation.
func BenchmarkFig7AnalyticVsSim(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p := benchParams()
		p.Horizon = 8000 // deviation metric needs statistical depth
		f, err := experiments.Fig7(p)
		if err != nil {
			b.Fatal(err)
		}
		if !f.Claims[0].Pass {
			b.Fatalf("deviation claim failed: %s", f.Claims[0].Detail)
		}
		b.ReportMetric(1, "deviation-claim-pass")
	}
}

// BenchmarkExtBlocking regenerates the bandwidth-blocking extension
// experiment (drop rate vs premium bandwidth share).
func BenchmarkExtBlocking(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := experiments.ExtBlocking(benchParams())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(f.Series[0].Y[len(f.Series[0].Y)-1], "classA-drop-at-max-share")
	}
}

func minY(b *testing.B, ys []float64) float64 {
	b.Helper()
	if len(ys) == 0 {
		b.Fatal("empty series: experiment produced no data points")
	}
	m := ys[0]
	for _, y := range ys[1:] {
		if y < m {
			m = y
		}
	}
	return m
}

// --- Ablation benches (DESIGN.md) ---

// benchCoreConfig is the paper workload the ablation benches and the
// allocation ceiling share: θ=0.6, λ=5, K=40, α=0.5 at a short horizon,
// enough steady state for a stable allocation ratio.
func benchCoreConfig(tb testing.TB) core.Config {
	tb.Helper()
	cat, err := catalog.Generate(catalog.PaperConfig(0.6, 42))
	if err != nil {
		tb.Fatal(err)
	}
	cl, err := clients.New(clients.PaperConfig())
	if err != nil {
		tb.Fatal(err)
	}
	return core.Config{
		Catalog:        cat,
		Classes:        cl,
		Lambda:         5,
		Cutoff:         40,
		Alpha:          0.5,
		Horizon:        3000,
		WarmupFraction: 0.1,
		Seed:           9,
	}
}

// maxAllocsPerRequest is the steady-state heap-allocation budget per
// simulated request. The pre-pooling engine sat near 2.75, the slimmed hot
// path near 1.12; with the arena-backed event queue and the request arena
// the engine measures ~0.014, so a breach means an arena, pooling or
// histogram regression.
const maxAllocsPerRequest = 0.5

// TestAllocsPerRequestCeiling measures the live engine, so an allocation
// regression fails tier-1.
func TestAllocsPerRequestCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement needs full runs")
	}
	cfg := benchCoreConfig(t)
	requests := cfg.Horizon * cfg.Lambda
	perRun := testing.AllocsPerRun(3, func() {
		if _, err := core.Run(cfg); err != nil {
			t.Fatal(err)
		}
	})
	got := perRun / requests
	t.Logf("%.3f allocs per simulated request", got)
	if got > maxAllocsPerRequest {
		t.Fatalf("%.3f allocs/request exceeds budget %.1f", got, maxAllocsPerRequest)
	}
}

// maxTracedBytesPerEvent is the heap budget of a traced, telemetry-on run:
// bytes allocated per recorded event, as a multiple of the event's own
// size, not counting the unused tail of the final trace.Buffer (which
// depends only on where the event count falls between two capacities). A
// doubling Buffer allocates its final capacity plus the earlier ones, which
// sum to less than the final one, so with the tail excluded it costs 2–3
// event sizes per event and the engine, telemetry and spans add little.
// append's 1.25× growth for large slices allocates earlier capacities
// summing to about four times the final one, over 5 event sizes per event,
// so reverting the growth policy fails this test.
const maxTracedBytesPerEvent = 4

// maxTracedHeapBytesPerEvent is the same budget in bytes. The relative
// budget above scales with sizeof(trace.Event), so it cannot see the event
// itself grow; this one can. A 96-byte event measures 296 B per recorded
// event; the ceiling leaves 15% of margin for engine or telemetry drift,
// while the old 128-byte layout (about 390 B) fails it.
const maxTracedHeapBytesPerEvent = 340

// TestTracedBytesPerEventCeiling measures the recorded-run path — trace
// buffer, telemetry collector and span sampling on the paper workload — so
// a trace-cost regression fails tier-1 on a count, not a timing.
func TestTracedBytesPerEventCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement needs full runs")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const runs = 3
	size := uint64(unsafe.Sizeof(trace.Event{}))
	var bytes uint64
	var events int
	var before, after runtime.MemStats
	for i := 0; i < runs; i++ {
		cfg := benchCoreConfig(t)
		tele, err := telemetry.New(telemetry.Options{SnapshotEvery: 50})
		if err != nil {
			t.Fatal(err)
		}
		buf := &trace.Buffer{}
		cfg.Telemetry, cfg.Tracer = tele, buf
		cfg.Spans = &core.SpanConfig{Rates: []float64{0.2, 0.1, 0.05}}
		runtime.ReadMemStats(&before)
		if _, err := core.Run(cfg); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		tail := uint64(cap(buf.Events)-len(buf.Events)) * size
		bytes += after.TotalAlloc - before.TotalAlloc - tail
		events += len(buf.Events)
	}
	got := float64(bytes) / float64(events) / float64(size)
	t.Logf("%.0f heap bytes per recorded event = %.2f × sizeof(trace.Event) (%d B), %d events per run",
		float64(bytes)/float64(events), got, size, events/runs)
	if got > maxTracedBytesPerEvent {
		t.Fatalf("%.2f event sizes of heap per recorded event exceeds budget %d", got, maxTracedBytesPerEvent)
	}
	if perEvent := float64(bytes) / float64(events); perEvent > maxTracedHeapBytesPerEvent {
		t.Fatalf("%.0f heap bytes per recorded event exceeds budget %d B", perEvent, maxTracedHeapBytesPerEvent)
	}
}

// BenchmarkPullPolicies (ABL-POLICY): full simulations under each registered
// pull policy, reporting each policy's overall delay.
func BenchmarkPullPolicies(b *testing.B) {
	for _, name := range []string{
		"gamma", "stretch", "priority", "fcfs", "edf", "mrf", "rxw", "classic-stretch",
	} {
		b.Run(name, func(b *testing.B) {
			cfg := benchCoreConfig(b)
			cfg.PullPolicyName = name
			for i := 0; i < b.N; i++ {
				m, err := core.Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(m.OverallMeanDelay(), "mean-delay")
			}
		})
	}
}

// BenchmarkPushSchedulers (ABL-PUSH): full simulations under each registered
// push scheduler.
func BenchmarkPushSchedulers(b *testing.B) {
	for _, name := range []string{"roundrobin", "broadcast-disk", "square-root", "none"} {
		b.Run(name, func(b *testing.B) {
			cfg := benchCoreConfig(b)
			cfg.PushPolicyName = name
			for i := 0; i < b.N; i++ {
				m, err := core.Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(m.OverallMeanDelay(), "mean-delay")
			}
		})
	}
}

// BenchmarkCutoffOptimizers (ABL-CUTOFF): analytic model sweep vs simulated
// sweep for choosing K.
func BenchmarkCutoffOptimizers(b *testing.B) {
	b.Run("analytic", func(b *testing.B) {
		cfg := benchCoreConfig(b)
		model := analytic.Model{
			Catalog: cfg.Catalog, Classes: cfg.Classes,
			LambdaTotal: cfg.Lambda, Alpha: cfg.Alpha, Variant: analytic.Refined,
		}
		for i := 0; i < b.N; i++ {
			best, err := model.OptimalCutoff(10, 90, analytic.ByTotalCost)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(best.K), "optimal-K")
		}
	})
	b.Run("simulated", func(b *testing.B) {
		cfg := benchCoreConfig(b)
		cfg.Horizon = 1500
		for i := 0; i < b.N; i++ {
			points, err := sim.SweepCutoffs(cfg, []int{10, 30, 50, 70, 90}, 1, nil)
			if err != nil {
				b.Fatal(err)
			}
			best, err := sim.OptimalByTotalCost(points)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(best.K), "optimal-K")
		}
	})
}

// BenchmarkBandwidthBlocking (ABL-BW): blocking under strict partitioning vs
// borrow mode.
func BenchmarkBandwidthBlocking(b *testing.B) {
	for _, mode := range []struct {
		name   string
		borrow bool
	}{{"strict", false}, {"borrow", true}} {
		b.Run(mode.name, func(b *testing.B) {
			cfg := benchCoreConfig(b)
			cfg.Bandwidth = &bandwidth.Config{
				Total:       8,
				Fractions:   []float64{0.5, 0.3, 0.2},
				DemandMean:  1.5,
				AllowBorrow: mode.borrow,
			}
			for i := 0; i < b.N; i++ {
				m, err := core.Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(m.BlockedTransmissions), "blocked")
			}
		})
	}
}

// BenchmarkExtMultiClass regenerates the five-class extension experiment.
func BenchmarkExtMultiClass(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := experiments.ExtMultiClass(benchParams())
		if err != nil {
			b.Fatal(err)
		}
		// Spread between premium and free tier at α=0.
		b.ReportMetric(f.Series[4].Y[0]-f.Series[0].Y[0], "five-class-spread-alpha0")
	}
}

// BenchmarkExtChannels regenerates the multi-channel split experiment.
func BenchmarkExtChannels(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := experiments.ExtChannels(benchParams())
		if err != nil {
			b.Fatal(err)
		}
		overall := f.Series[len(f.Series)-1].Y
		b.ReportMetric(minY(b, overall), "best-split-delay")
	}
}

// BenchmarkCachePolicies (ABL-CACHE): full simulations under each
// client-cache replacement policy, reporting the cache hit rate.
func BenchmarkCachePolicies(b *testing.B) {
	for _, pol := range []cache.PolicyKind{cache.LRU, cache.LFU, cache.PIX} {
		b.Run(pol.String(), func(b *testing.B) {
			cfg := benchCoreConfig(b)
			cfg.ClientCache = &core.CacheConfig{NumClients: 15, Capacity: 8, Policy: pol}
			for i := 0; i < b.N; i++ {
				s, err := core.New(cfg)
				if err != nil {
					b.Fatal(err)
				}
				m := s.Run()
				b.ReportMetric(s.CacheHitRate(), "hit-rate")
				b.ReportMetric(m.OverallMeanDelay(), "mean-delay")
			}
		})
	}
}

// BenchmarkArrivalProcesses: simulator throughput and delay under the three
// workload shapes at equal mean rate.
func BenchmarkArrivalProcesses(b *testing.B) {
	shapes := map[string]func() workload.ArrivalProcess{
		"poisson": func() workload.ArrivalProcess {
			p, _ := workload.NewPoisson(5)
			return p
		},
		"bursty-mmpp": func() workload.ArrivalProcess {
			m, err := workload.Bursty(5, 3, 0.01)
			if err != nil {
				b.Fatal(err)
			}
			return m
		},
		"batch": func() workload.ArrivalProcess {
			bp, err := workload.NewBatchPoisson(5.0/3, 3)
			if err != nil {
				b.Fatal(err)
			}
			return bp
		},
	}
	for name, mk := range shapes {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := benchCoreConfig(b)
				cfg.Arrivals = mk() // stateful: fresh per iteration
				m, err := core.Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(m.OverallMeanDelay(), "mean-delay")
			}
		})
	}
}

// BenchmarkExtIndexing regenerates the air-indexing experiment (analytic —
// this measures the sweep itself).
func BenchmarkExtIndexing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := experiments.ExtIndexing(benchParams())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(minY(b, f.Series[0].Y), "best-access-time")
	}
}

// BenchmarkExtLoad regenerates the offered-load robustness experiment.
func BenchmarkExtLoad(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := experiments.ExtLoad(benchParams())
		if err != nil {
			b.Fatal(err)
		}
		ys := f.Series[2].Y
		b.ReportMetric(ys[len(ys)-1]/ys[0], "classC-delay-ratio-20x-load")
	}
}
