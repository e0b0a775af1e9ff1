//go:build !race

package core

import (
	"runtime"
	"testing"
)

// Steady-state allocation budgets per run of BenchmarkRun's cells, once a
// warm-up run has released its storage to the next. Each run still builds
// its Server, RNG streams, metrics and event queue, but its pull-queue
// entries, push-waiter lists and retry arena start from the previous
// run's. Measured with go1.24.0 on a 2-vCPU Xeon at one P: 86–99
// allocations per run for cell=paper and 132 for cell=lossy-untraced. The
// budgets are about twice the BenchmarkRun figures (91 and 138 allocs/op);
// regrowing the request storage from empty, as every run did before it
// was reused, measured 603 and 978 here, and regrowing only the retry
// arena 254–259 for cell=lossy-untraced. The race detector drops pooled
// items on purpose, so this file is left out of race builds.
const (
	maxPaperRunAllocs    = 180
	maxUntracedRunAllocs = 270
)

// TestSteadyStateRunAllocs bounds the allocations of back-to-back runs of
// the paper cell and the untraced lossy cell.
func TestSteadyStateRunAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement needs full runs")
	}
	// One P: storage is pooled per P, and a run that moved to another P
	// would start cold.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	cells := []struct {
		name   string
		config func(tb testing.TB, seed uint64) Config
		budget uint64
	}{
		{"paper", func(tb testing.TB, seed uint64) Config {
			cfg := baseConfig(tb)
			cfg.Horizon, cfg.WarmupFraction, cfg.Seed = 1000, 0, seed
			return cfg
		}, maxPaperRunAllocs},
		{"lossy-untraced", lossyUntracedConfig, maxUntracedRunAllocs},
	}
	const runs = 4
	for _, c := range cells {
		if _, err := Run(c.config(t, 1)); err != nil { // warm-up
			t.Fatal(err)
		}
		var total uint64
		for seed := uint64(2); seed < 2+runs; seed++ {
			cfg := c.config(t, seed)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := Run(cfg)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			total += after.Mallocs - before.Mallocs
		}
		got := total / runs
		t.Logf("%s: %d allocations per run", c.name, got)
		if got > c.budget {
			t.Errorf("%s: %d allocations per run exceeds the budget %d", c.name, got, c.budget)
		}
	}
}
