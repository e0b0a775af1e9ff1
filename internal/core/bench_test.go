package core

import (
	"runtime"
	"testing"

	"hybridqos/internal/bandwidth"
	"hybridqos/internal/faults"
	"hybridqos/internal/telemetry"
	"hybridqos/internal/trace"
	"hybridqos/internal/workload"
)

// BenchmarkRun times Run per generated request on two cells shaped like
// perfbench's: cell=paper is the paper's cell (Poisson λ=5, K=40, γ with
// α=0.5, no faults, no tracing); cell=lossy-overload adds bursty MMPP
// arrivals, burst loss with backoff retries, shedding, bandwidth blocking,
// EDF with a TTL, telemetry, spans and a trace buffer; cell=lossy-telemetry
// is the same cell with telemetry alone, no tracer (qosd's shape, and
// hybridsim's with telemetry and no -trace); cell=lossy-untraced records
// nothing, the shape the EXT-FAULTS sweeps run.
// Each iteration is one replication at horizon 1000 under a fresh seed;
// building the config is not timed. ns/req divides the timed total by the
// arrivals it generated.
func BenchmarkRun(b *testing.B) {
	cells := []struct {
		name   string
		config func(tb testing.TB, seed uint64) Config
	}{
		{"paper", func(tb testing.TB, seed uint64) Config {
			cfg := baseConfig(tb)
			cfg.Horizon, cfg.WarmupFraction, cfg.Seed = 1000, 0, seed
			return cfg
		}},
		{"lossy-overload", lossyOverloadConfig},
		{"lossy-telemetry", lossyTelemetryConfig},
		{"lossy-untraced", lossyUntracedConfig},
	}
	for _, c := range cells {
		b.Run("cell="+c.name, func(b *testing.B) {
			b.ReportAllocs()
			var reqs int64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				cfg := c.config(b, uint64(i+1))
				b.StartTimer()
				m, err := Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				for _, cm := range m.PerClass {
					reqs += cm.Arrivals
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(reqs), "ns/req")
		})
	}
}

// lossyOverloadConfig is BenchmarkRun's cell=lossy-overload: the
// lossyUntracedConfig cell with everything recorded.
func lossyOverloadConfig(tb testing.TB, seed uint64) Config {
	cfg := lossyTelemetryConfig(tb, seed)
	cfg.Spans = &SpanConfig{Rates: []float64{0.2, 0.1, 0.05}}
	cfg.Tracer = &trace.Buffer{}
	return cfg
}

// lossyTelemetryConfig is BenchmarkRun's cell=lossy-telemetry: the
// lossyUntracedConfig cell with a telemetry collector and no tracer.
func lossyTelemetryConfig(tb testing.TB, seed uint64) Config {
	cfg := lossyUntracedConfig(tb, seed)
	tele, err := telemetry.New(telemetry.Options{SnapshotEvery: 50})
	if err != nil {
		tb.Fatal(err)
	}
	cfg.Telemetry = tele
	return cfg
}

// lossyUntracedConfig is BenchmarkRun's cell=lossy-untraced: the paper's
// catalog overloaded with bursty MMPP arrivals over a Gilbert–Elliott
// burst-loss downlink, with backoff retries, shedding, bandwidth blocking
// and EDF with a TTL, recording nothing.
func lossyUntracedConfig(tb testing.TB, seed uint64) Config {
	cfg := baseConfig(tb)
	arr, err := workload.Bursty(7, 3, 0.02)
	if err != nil {
		tb.Fatal(err)
	}
	loss, err := faults.NewBurstLoss(0.3, 5)
	if err != nil {
		tb.Fatal(err)
	}
	bw := bandwidth.PaperConfig()
	cfg.Lambda, cfg.Arrivals = 7, arr
	cfg.PullPolicyName, cfg.RequestTTL = "edf", 400
	cfg.Loss = loss
	cfg.Retry = faults.RetryPolicy{MaxAttempts: 4, Base: 20, Multiplier: 2, Jitter: 0.5}
	cfg.Shed = &faults.ShedConfig{High: 900, Low: 700}
	cfg.Bandwidth, cfg.RetryOnBlock = &bw, true
	cfg.Horizon, cfg.WarmupFraction, cfg.Seed = 1000, 0, seed
	return cfg
}

// maxLossyAllocsPerArrival is the heap-allocation budget per arrival of an
// untraced lossy run at horizon 20000. With loss retries in an arena and
// the pull grant reused, nothing in the slot loop allocates per event; what
// remains is growth to peak occupancy (event queue, arenas, pull-queue
// entries, waiter lists), measured at 0.0048 per arrival (1,182
// allocations for 246,293 arrivals). The ceiling is twice that; a closure
// per retry and a grant per pull transmission measured 0.0955.
const maxLossyAllocsPerArrival = 0.0096

// TestLossySteadyStateAllocs runs the lossy cell with no recorders for
// long enough that setup and growth are amortised, and bounds what it
// allocates per arrival.
func TestLossySteadyStateAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement needs a full run")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	cfg := lossyUntracedConfig(t, 1)
	cfg.Horizon = 20000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m, err := Run(cfg)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	var arrivals int64
	for _, cm := range m.PerClass {
		arrivals += cm.Arrivals
	}
	allocs := after.Mallocs - before.Mallocs
	got := float64(allocs) / float64(arrivals)
	t.Logf("%d allocations over %d arrivals: %.4f per arrival", allocs, arrivals, got)
	if got > maxLossyAllocsPerArrival {
		t.Fatalf("%.4f allocations per arrival exceeds the budget %.4f", got, maxLossyAllocsPerArrival)
	}
}
