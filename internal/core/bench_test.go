package core

import (
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
// EDF with a TTL, telemetry, spans and a trace buffer. Each iteration is
// one replication at horizon 1000 under a fresh seed; building the config
// is not timed. ns/req divides the timed total by the arrivals it
// generated.
func BenchmarkRun(b *testing.B) {
	cells := []struct {
		name   string
		config func(b *testing.B, seed uint64) Config
	}{
		{"paper", func(b *testing.B, seed uint64) Config {
			cfg := baseConfig(b)
			cfg.Horizon, cfg.WarmupFraction, cfg.Seed = 1000, 0, seed
			return cfg
		}},
		{"lossy-overload", lossyOverloadConfig},
	}
	for _, c := range cells {
		b.Run("cell="+c.name, func(b *testing.B) {
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

// lossyOverloadConfig is BenchmarkRun's cell=lossy-overload: the paper's
// catalog overloaded with bursty MMPP arrivals over a Gilbert–Elliott
// burst-loss downlink, everything recorded.
func lossyOverloadConfig(b *testing.B, seed uint64) Config {
	cfg := baseConfig(b)
	arr, err := workload.Bursty(7, 3, 0.02)
	if err != nil {
		b.Fatal(err)
	}
	loss, err := faults.NewBurstLoss(0.3, 5)
	if err != nil {
		b.Fatal(err)
	}
	tele, err := telemetry.New(telemetry.Options{SnapshotEvery: 50})
	if err != nil {
		b.Fatal(err)
	}
	bw := bandwidth.PaperConfig()
	cfg.Lambda, cfg.Arrivals = 7, arr
	cfg.PullPolicyName, cfg.RequestTTL = "edf", 400
	cfg.Loss = loss
	cfg.Retry = faults.RetryPolicy{MaxAttempts: 4, Base: 20, Multiplier: 2, Jitter: 0.5}
	cfg.Shed = &faults.ShedConfig{High: 900, Low: 700}
	cfg.Bandwidth, cfg.RetryOnBlock = &bw, true
	cfg.Telemetry = tele
	cfg.Spans = &SpanConfig{Rates: []float64{0.2, 0.1, 0.05}}
	cfg.Tracer = &trace.Buffer{}
	cfg.Horizon, cfg.WarmupFraction, cfg.Seed = 1000, 0, seed
	return cfg
}
