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
// run's. Measured with go1.24.0 on a 2-vCPU Xeon at one P: 62
// allocations per run for cell=paper and 88 for cell=lossy-untraced (86–99
// and 132 while every run kept its delay samples). The budgets were set
// at about twice the BenchmarkRun figures of that time (91 and 138
// allocs/op);
// regrowing the request storage from empty, as every run did before it
// was reused, measured 603 and 978 here, and regrowing only the retry
// arena 254–259 for cell=lossy-untraced. The race detector drops pooled
// items on purpose, so this file is left out of race builds.
const (
	maxPaperCellAllocs    = 180
	maxUntracedCellAllocs = 270
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
		}, maxPaperCellAllocs},
		{"lossy-untraced", lossyUntracedConfig, maxUntracedCellAllocs},
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

// Budgets per arrival for TestPaperSteadyStateAllocs, twice what it
// measured with go1.24.0 on a 2-vCPU Xeon: 0.0100 allocations and 1.2
// bytes per arrival (about 50 objects and 6 KB per 5000-arrival run).
// Keeping every served delay, as every run did before a reader had to ask
// for samples, measured 0.0199 allocations and 24.1 bytes per arrival: the
// per-class sample slices regrown from empty each run.
const (
	maxPaperAllocsPerArrival = 0.020
	maxPaperBytesPerArrival  = 2.4
)

// TestPaperSteadyStateAllocs bounds what BenchmarkRun's cell=paper
// allocates per arrival, in objects and in bytes, once a warm-up run has
// released its storage to the next.
func TestPaperSteadyStateAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement needs full runs")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	config := func(seed uint64) Config {
		cfg := baseConfig(t)
		cfg.Horizon, cfg.WarmupFraction, cfg.Seed = 1000, 0, seed
		return cfg
	}
	if _, err := Run(config(1)); err != nil { // warm-up
		t.Fatal(err)
	}
	var allocs, bytes uint64
	var arrivals int64
	for seed := uint64(2); seed < 6; seed++ {
		cfg := config(seed)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m, err := Run(cfg)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		allocs += after.Mallocs - before.Mallocs
		bytes += after.TotalAlloc - before.TotalAlloc
		for _, cm := range m.PerClass {
			arrivals += cm.Arrivals
		}
	}
	perAlloc, perByte := float64(allocs)/float64(arrivals), float64(bytes)/float64(arrivals)
	t.Logf("%d arrivals: %.4f allocations and %.1f bytes per arrival", arrivals, perAlloc, perByte)
	if perAlloc > maxPaperAllocsPerArrival {
		t.Errorf("%.4f allocations per arrival exceeds the budget %g", perAlloc, maxPaperAllocsPerArrival)
	}
	if perByte > maxPaperBytesPerArrival {
		t.Errorf("%.1f bytes per arrival exceeds the budget %g", perByte, maxPaperBytesPerArrival)
	}
}
