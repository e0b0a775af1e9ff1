package telemetry

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"testing"
)

// writePromOracle is the fmt-based Prometheus renderer AppendProm replaced,
// kept verbatim as the reference its bytes must equal.
func writePromOracle(w io.Writer, s *Snapshot) error {
	if s == nil {
		return fmt.Errorf("telemetry: nil snapshot")
	}
	if _, err := fmt.Fprintf(w, "# TYPE hybridqos_sim_time gauge\nhybridqos_sim_time %s\n", oracleFloat(s.T)); err != nil {
		return err
	}
	var lastType string
	emitType := func(name, kind string) error {
		if name == lastType {
			return nil
		}
		lastType = name
		_, err := fmt.Fprintf(w, "# TYPE %s %s\n", name, kind)
		return err
	}
	for _, c := range s.Counters {
		name := "hybridqos_" + c.Name + "_total"
		if err := emitType(name, "counter"); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s%s %d\n", name, oracleLabels(c.Class, ""), c.V); err != nil {
			return err
		}
	}
	for _, g := range s.Gauges {
		name := "hybridqos_" + g.Name
		if err := emitType(name, "gauge"); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s%s %s\n", name, oracleLabels(g.Class, ""), oracleFloat(g.V)); err != nil {
			return err
		}
	}
	for _, h := range s.Hists {
		name := "hybridqos_" + h.Name
		if err := emitType(name, "histogram"); err != nil {
			return err
		}
		var cum int64
		for i, bound := range delayBounds {
			if i < len(h.Counts) {
				cum += h.Counts[i]
			}
			le := oracleFloat(bound)
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, oracleLabels(h.Class, le), cum); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, oracleLabels(h.Class, "+Inf"), h.N()); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", name, oracleLabels(h.Class, ""), oracleFloat(h.Sum)); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_count%s %d\n", name, oracleLabels(h.Class, ""), h.N()); err != nil {
			return err
		}
	}
	return nil
}

func oracleLabels(class int, le string) string {
	switch {
	case class == ClassNone && le == "":
		return ""
	case class == ClassNone:
		return `{le="` + le + `"}`
	case le == "":
		return `{class="` + strconv.Itoa(class) + `"}`
	default:
		return `{class="` + strconv.Itoa(class) + `",le="` + le + `"}`
	}
}

func oracleFloat(v float64) string {
	switch {
	case math.IsNaN(v):
		return "NaN"
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	default:
		return strconv.FormatFloat(v, 'g', -1, 64)
	}
}

// goldenSnapshot exercises every rendering branch: class-labelled and
// unlabelled counters, non-finite and extreme gauges, a gauge whose full
// name equals the preceding counter's (`shed` + `_total`) and a histogram
// whose name equals the preceding gauge's (both skip their TYPE line), a
// short and an empty histogram count slice, and a negative class.
func goldenSnapshot() *Snapshot {
	full := make([]int64, len(delayBounds)+1)
	for i := range full {
		full[i] = int64(i % 4)
	}
	return &Snapshot{
		T:   1234.5,
		Seq: 9,
		Counters: []CounterSnap{
			{Name: MetricArrivals, Class: 0, V: 17},
			{Name: MetricArrivals, Class: 2, V: 3},
			{Name: MetricBlocked, Class: ClassNone, V: 2},
			{Name: MetricShed, Class: 1, V: 0},
		},
		Gauges: []GaugeSnap{
			{Name: "shed_total", Class: ClassNone, V: 4},
			{Name: MetricBandwidthInUse, Class: 0, V: math.Inf(1)},
			{Name: MetricBandwidthInUse, Class: 1, V: math.Inf(-1)},
			{Name: MetricQueueItems, Class: ClassNone, V: math.NaN()},
			{Name: MetricQueueRequests, Class: ClassNone, V: 0.1},
			{Name: "tiny", Class: ClassNone, V: 5e-324},
			{Name: "huge", Class: -7, V: -1e21},
			{Name: MetricDelay, Class: 0, V: 0.000001},
		},
		Hists: []HistSnap{
			{Name: MetricDelay, Class: 0, Counts: []int64{1, 0, 2}, Sum: 0.3},
			{Name: MetricDelay, Class: 1, Counts: full, Sum: 1e-7},
			{Name: MetricDelay, Class: ClassNone, Sum: math.NaN()},
			{Name: "wait", Class: 2, Counts: []int64{-1, 5}, Sum: 9e300},
		},
	}
}

// TestPromGolden pins the exposition bytes: AppendProm, and the oracle it
// replaced, must both render goldenSnapshot exactly as testdata/golden.prom
// (recorded from the oracle), whatever b already holds.
func TestPromGolden(t *testing.T) {
	const path = "testdata/golden.prom"
	got := AppendProm(nil, goldenSnapshot())
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("AppendProm renders differently from %s:\n%s", path, got)
	}
	var oracle bytes.Buffer
	if err := writePromOracle(&oracle, goldenSnapshot()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(oracle.Bytes(), want) {
		t.Errorf("oracle renders differently from %s:\n%s", path, oracle.Bytes())
	}
	prefix := []byte("# already here\n")
	if got := AppendProm(prefix, goldenSnapshot()); !bytes.Equal(got, append(prefix, want...)) {
		t.Errorf("AppendProm after a non-empty prefix:\n%s", got)
	}
}

// TestAppendPromAllocs requires the renderer to allocate only for buffer
// growth: into a buffer with room, a full snapshot renders without one.
func TestAppendPromAllocs(t *testing.T) {
	s := collectSample(t).TakeSnapshot(40)
	buf := AppendProm(nil, s)
	if n := testing.AllocsPerRun(100, func() { buf = AppendProm(buf[:0], s) }); n != 0 {
		t.Errorf("AppendProm into a sized buffer: %.1f allocs, want 0", n)
	}
}

func BenchmarkAppendProm(b *testing.B) {
	s := threeClassSnapshot(b)
	var buf []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = AppendProm(buf[:0], s)
	}
	b.SetBytes(int64(len(buf)))
}

func BenchmarkTakeSnapshot(b *testing.B) {
	c := threeClassCollector(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.TakeSnapshot(float64(i))
	}
}

// threeClassCollector is a collector in the state a three-class qosd holds
// while serving: per-class arrivals, serves, sheds and delays, plus the
// queue, shed-level and draining gauges.
func threeClassCollector(tb testing.TB) *Collector {
	tb.Helper()
	c, err := New(Options{})
	if err != nil {
		tb.Fatal(err)
	}
	for class := 0; class < 3; class++ {
		for i := 0; i < 50; i++ {
			c.Arrival(class)
			c.Served(class, float64(i)/4, i%2 == 0)
		}
		c.Shed(class)
		c.Expired(class)
		c.RateLimited(class)
		c.QuotaExceeded(class)
	}
	c.Rejected(ClassNone)
	c.PushComplete()
	c.PullComplete()
	c.ObserveQueue(4, 9)
	c.ObserveShedLevel(1)
	c.ObserveDraining(false)
	return c
}

func threeClassSnapshot(tb testing.TB) *Snapshot {
	return threeClassCollector(tb).TakeSnapshot(100)
}
