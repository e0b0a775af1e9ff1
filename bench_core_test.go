// Guards for the committed simulator hot-path baseline (BENCH_core.json):
// the file must stay parseable with the results cmd/corebench -verify
// expects, and the live engine must stay within the allocation budget the
// baseline records — the cheap regression gate for the alloc-slim hot path.
package hybridqos

import (
	"encoding/json"
	"os"
	"testing"

	"hybridqos/internal/catalog"
	"hybridqos/internal/clients"
	"hybridqos/internal/core"
)

// benchCoreResult mirrors cmd/corebench's Result (the command is package
// main, so the shape is re-declared here; the test fails if they drift).
type benchCoreResult struct {
	Name             string  `json:"name"`
	OpsPerSec        float64 `json:"ops_per_sec"`
	AllocsPerOp      int64   `json:"allocs_per_op"`
	AllocsPerRequest float64 `json:"allocs_per_request"`
}

// maxAllocsPerRequest is the steady-state heap-allocation budget per
// simulated request. The pre-pooling engine sat near 2.75, the slimmed hot
// path near 1.12; with the arena-backed event queue and the request arena
// the engine measures ~0.014, so a breach means an arena, pooling or
// histogram regression.
const maxAllocsPerRequest = 0.5

func TestBenchCoreBaselineParses(t *testing.T) {
	blob, err := os.ReadFile("BENCH_core.json")
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Description string            `json:"description"`
		Results     []benchCoreResult `json:"results"`
	}
	if err := json.Unmarshal(blob, &rep); err != nil {
		t.Fatalf("BENCH_core.json: %v", err)
	}
	if rep.Description == "" || len(rep.Results) == 0 {
		t.Fatal("BENCH_core.json: missing description or results")
	}
	byName := map[string]benchCoreResult{}
	for _, r := range rep.Results {
		byName[r.Name] = r
	}
	tp, ok := byName["engine/throughput"]
	if !ok || tp.OpsPerSec <= 0 || tp.AllocsPerOp <= 0 {
		t.Fatalf("engine/throughput result missing or empty: %+v", tp)
	}
	al, ok := byName["engine/allocs"]
	if !ok || al.AllocsPerRequest <= 0 {
		t.Fatalf("engine/allocs result missing or empty: %+v", al)
	}
	if al.AllocsPerRequest > maxAllocsPerRequest {
		t.Fatalf("committed baseline records %.3f allocs/request, budget %.1f — regenerate with `go run ./cmd/corebench` only after fixing the regression",
			al.AllocsPerRequest, maxAllocsPerRequest)
	}
}

// TestAllocsPerRequestCeiling measures the live engine, not the committed
// file, so an allocation regression fails tier-1 even if BENCH_core.json is
// stale.
func TestAllocsPerRequestCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement needs full runs")
	}
	cfg := coreBenchConfigT(t)
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

// coreBenchConfigT is benchCoreConfig's shape for tests: the paper workload
// at a shorter horizon, enough steady state for a stable allocation ratio.
func coreBenchConfigT(t *testing.T) core.Config {
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
		Seed:           9,
	}
}
