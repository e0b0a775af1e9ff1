package span_test

import (
	"fmt"
	"testing"

	"hybridqos/internal/core"
	"hybridqos/internal/span"
)

// BenchmarkBuild reconstructs every span of a faulty, fully sampled run at
// two horizons. Build is one pass over the stream, so ns/event should stay
// flat as the horizon grows; a per-event cost that rises with the horizon
// means some event kind has started walking spans that are already closed.
func BenchmarkBuild(b *testing.B) {
	for _, horizon := range []float64{5000, 20000} {
		b.Run(fmt.Sprintf("horizon=%g", horizon), func(b *testing.B) {
			cfg := base(b)
			cfg.Horizon = horizon
			cfg.Spans = &core.SpanConfig{}
			events := run(b, cfg)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := span.Build(events); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(events)), "ns/event")
		})
	}
}
