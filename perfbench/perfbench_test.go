package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestQuantileInclusive(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5}, {0.1, 1.4},
	} {
		if got := quantile(xs, c.q); !near(got, c.want) {
			t.Errorf("quantile(%v) = %g, want %g", c.q, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("quantile sorted its input in place")
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of nothing is not NaN")
	}
}

// TestQuartilesMatchPython pins the values Python's
// statistics.quantiles(data, n=4) returns for the same data.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{1, 2, 3, 4}, 1.25, 3.75},
		{[]float64{5, 1}, 0, 6},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3}, 1.75, 5.25},
	} {
		q1, q3, err := quartiles(c.xs)
		if err != nil || !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %g, %g, %v; want %g, %g", c.xs, q1, q3, err, c.q1, c.q3)
		}
	}
	if _, _, err := quartiles([]float64{1}); err == nil {
		t.Error("quartiles of one value succeeded")
	}
	spread, err := relSpread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if err != nil || !near(spread, (8.25-2.75)/5.5) {
		t.Errorf("relSpread = %g, %v", spread, err)
	}
}

func TestReconcile(t *testing.T) {
	for _, c := range []struct {
		l  layerCost
		ok bool
	}{
		{layerCost{name: "exact", calls: 10, insituNs: 100, isoNs: 100, slackNs: 25}, true},
		{layerCost{name: "within factor", calls: 10, insituNs: 290, isoNs: 100}, true},
		{layerCost{name: "beyond factor", calls: 10, insituNs: 310, isoNs: 100}, false},
		{layerCost{name: "beyond factor and read", calls: 10, insituNs: 330, isoNs: 100, slackNs: 25}, false},
		{layerCost{name: "too cheap", calls: 10, insituNs: 30, isoNs: 200}, false},
		{layerCost{name: "within slack", calls: 10, insituNs: 43, isoNs: 9.5, slackNs: 25}, true},
		{layerCost{name: "timed at zero", calls: 10, insituNs: 0, isoNs: 9.5, slackNs: 14}, true},
		// A loss-model-sized layer that costs 5× in situ what it costs in
		// isolation fails, even with a slack of a quarter of a clock read.
		{layerCost{name: "15 ns layer at 5x", calls: 1e6, insituNs: 75, isoNs: 15, slackNs: 25}, false},
	} {
		if got := c.l.reconciles(); got != c.ok {
			t.Errorf("%s: reconciles() = %v, want %v", c.l.name, got, c.ok)
		}
	}
	res := newResult()
	worst, table := reconcile(res, []layerCost{
		{name: "a", calls: 5, insituNs: 150, isoNs: 100},
		{name: "b", calls: 5, insituNs: 500, isoNs: 100},
		{name: "unused", calls: 0, insituNs: 0, isoNs: 100},
	})
	if !near(worst, 4) || len(table) != 2 || len(res.checks) != 1 || res.attempted != 2 {
		t.Errorf("reconcile: worst %g, %d rows, checks %v, attempted %d", worst, len(table), res.checks, res.attempted)
	}
	self, share, err := attribute(200, map[string]float64{"x": 50, "y": 100})
	if err != nil || !near(self, 50) || !near(share, 0.25) {
		t.Errorf("attribute = %g, %g, %v", self, share, err)
	}
	if _, _, err := attribute(0, nil); err == nil {
		t.Error("attribute of a zero total succeeded")
	}
}

func TestSpeedFactors(t *testing.T) {
	// A run that steps from the reference speed to 1.5× slower: factors are
	// 1 before the step and 1.5^-exp after it, and one interrupted sample
	// inside a phase does not move its neighbours' factors.
	samples := make([]float64, 40)
	for i := range samples {
		samples[i] = calibRefNs
		if i >= 20 {
			samples[i] = 1.5 * calibRefNs
		}
	}
	samples[5] = 10 * calibRefNs
	fs := speedFactors(samples, 2)
	for _, c := range []struct {
		i    int
		want float64
	}{{0, 1}, {5, 1}, {19, 1}, {20, 1 / 2.25}, {39, 1 / 2.25}} {
		if !near(fs[c.i], c.want) {
			t.Errorf("factor %d = %g, want %g", c.i, fs[c.i], c.want)
		}
	}
	var a, b stopwatch
	a.calls, a.null, b.calls, b.null = 10, 900, 20, 2100
	if got := readSpread(&a, &b, &stopwatch{}); !near(got, 15) {
		t.Errorf("readSpread = %g, want 15", got)
	}
	if c := newCalibrator(); c.sample() <= 0 {
		t.Error("calibration sample is not positive")
	}
}

// TestCatalogueMatchesBenchmarkJSON keeps the metric names, units and their
// order in step with BENCHMARK.json, which declares them.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, names []string, got []struct{ Name, Unit string }) {
		if len(got) != len(names) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(got), len(names))
		}
		for i, m := range got {
			if m.Name != names[i] || m.Unit != units[names[i]] {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], program %s [%s]",
					kind, i, m.Name, m.Unit, names[i], units[names[i]])
			}
		}
	}
	check("end_to_end", endToEnd, doc.EndToEnd)
	check("per_layer", perLayer, doc.PerLayer)
	for _, w := range doc.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %s has no runner", w.Name)
		}
	}
	if len(doc.Workloads) != len(workloads) {
		t.Errorf("%d workloads in BENCHMARK.json, %d runners", len(doc.Workloads), len(workloads))
	}
}

// TestSmoke runs every workload briefly, untraced and traced, and requires
// clean output checks and a complete, finite metric set.
func TestSmoke(t *testing.T) {
	seconds := map[string]float64{"paper-cell": 2, "lossy-overload-cell": 5, "qosd-loopback": 3}
	for _, name := range []string{"paper-cell", "lossy-overload-cell", "qosd-loopback"} {
		for _, traced := range []bool{false, true} {
			o := options{seed: 7, seconds: seconds[name], trace: traced}
			res, err := workloads[name](o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, traced, err)
			}
			if len(res.checks) > 0 || res.failed > 0 {
				t.Errorf("%s trace=%v: %d failed, checks %v", name, traced, res.failed, res.checks)
			}
			line, err := report(name, o, res)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, traced, err)
			}
			var out struct {
				Correct bool
				Metrics map[string]struct{ Value float64 }
			}
			if err := json.Unmarshal(line, &out); err != nil {
				t.Fatal(err)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if !out.Correct || len(out.Metrics) != len(want) {
				t.Errorf("%s trace=%v: correct %v with %d of %d metrics", name, traced, out.Correct, len(out.Metrics), len(want))
			}
			for _, n := range want {
				if _, ok := out.Metrics[n]; !ok {
					t.Errorf("%s trace=%v: metric %s missing", name, traced, n)
				}
			}
			if !traced && out.Metrics["ns_per_req"].Value <= 0 {
				t.Errorf("%s: ns_per_req %g", name, out.Metrics["ns_per_req"].Value)
			}
		}
	}
}
