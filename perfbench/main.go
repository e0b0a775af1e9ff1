// Command perfbench is the repository benchmark: one command that runs a
// named workload from a seed, checks its outputs, and prints every metric by
// name with its unit. The untraced run (-trace 0) reports the end-to-end
// metrics; the traced run (-trace 1) times calls into each layer from
// outside, through the injection points the code already has, and reports
// the per-layer metrics, the tracing overhead and the reconciliation of
// in-situ against isolated layer costs.
//
// Usage (from the repository root, see run.sh):
//
//	bash perfbench/run.sh --workload paper-cell --seed 1 --seconds 10 --trace 0
//
// Workloads: paper-cell, lossy-overload-cell, qosd-loopback. The last line
// of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": "u"}, ...}}
//
// The line before it carries the environment and provenance block (Go
// version, GOOS/GOARCH, GOMAXPROCS, CPU count and model, commit, seed, run
// length) and per-workload detail such as sample counts and the
// reconciliation table. Diagnostics go to standard error.
//
// Every end-to-end metric is reported by every workload, so each names the
// cost a user of that workload pays:
//
//   - ns_per_req, p90_ns_per_req: the time the code spends per request.
//     On the simulated cells, ns per arrival of core.Run on one P (the
//     quantity every figure and sweep repeats): total time over total
//     arrivals, and the 90th percentile over replications, each scaled to
//     the machine's calm speed by a calibration kernel timed beside it
//     (calib.go). On qosd-loopback, the median and 90th percentile of a
//     probe's round trip minus the engine-reported delay_units × unit (the
//     serving overhead; the delay itself is the modelled broadcast wait);
//     the traced run adds the 99th percentile as qosd.overhead_p99_us.
//   - allocs_per_req, bytes_per_req: heap allocations per request inside
//     core.Run (on the cells) or over the measured phase (on qosd), which
//     drive GC cost; exact enough to catch a new allocation on a hot path.
//   - peak_rss_mb: the process's peak resident memory (on the cells, over
//     set-up and the first peakReps replications).
//   - setup_s: median of repeated set-ups (inputs built plus one warm-up
//     replication, scaled like the cells' times; or the serving stack built
//     and started until it answers /readyz), so work moved out of the
//     measured loop shows.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// Metric catalogue. The names, units and their split into end-to-end and
// per-layer mirror BENCHMARK.json (a test keeps the two in step).
var (
	endToEnd = []string{
		"setup_s", "ns_per_req", "p90_ns_per_req",
		"allocs_per_req", "bytes_per_req", "peak_rss_mb",
	}
	perLayer = []string{
		"core.self_ns_per_req", "core.unattributed_frac", "trace.overhead_frac",
		"reconcile.max_dev_frac",
		"event.ns_per_op", "event.ops_per_req", "event.pending_mean",
		"pull.score_calls_per_req", "pull.score_ns", "pull.add_ns", "pull.extract_ns",
		"pull.useful_frac", "push.next_ns",
		"workload.arrival_ns", "workload.item_ns",
		"faults.loss_ns", "faults.goodput_frac", "faults.retries_per_req", "faults.shed_frac",
		"trace.events_per_req", "trace.sink_ns", "telemetry.apply_ns",
		"span.build_ns_per_event", "span.verify_ns_per_span",
		"trace.verify_snapshots_ns_per_event", "span.audit_ns_per_req",
		"clock.lag_p50_us", "clock.lag_p99_us", "clock.submit_wait_p50_us",
		"clock.submit_wait_p99_us", "clock.busy_frac", "clock.pending_max",
		"realtime.serve_us", "realtime.complete_us", "admission.admit_ns",
		"qosd.handler_us", "qosd.decode_ns", "qosd.encode_ns", "qosd.scrape_us",
		"net.loopback_us", "loadgen.lag_p99_us",
		"qosd.verdict_p50_ms", "qosd.verdict_p99_ms", "qosd.overhead_p99_us",
		"qosd.miss_frac", "qosd.max_rate_rps",
		"error_frac",
	}
	units = map[string]string{
		"setup_s": "s", "ns_per_req": "ns", "p90_ns_per_req": "ns",
		"allocs_per_req": "count", "bytes_per_req": "B", "peak_rss_mb": "MB",

		"core.self_ns_per_req": "ns", "core.unattributed_frac": "frac",
		"trace.overhead_frac": "frac", "reconcile.max_dev_frac": "frac",
		"event.ns_per_op": "ns", "event.ops_per_req": "count", "event.pending_mean": "count",
		"pull.score_calls_per_req": "count", "pull.score_ns": "ns", "pull.add_ns": "ns",
		"pull.extract_ns": "ns", "pull.useful_frac": "frac", "push.next_ns": "ns",
		"workload.arrival_ns": "ns", "workload.item_ns": "ns",
		"faults.loss_ns": "ns", "faults.goodput_frac": "frac",
		"faults.retries_per_req": "count", "faults.shed_frac": "frac",
		"trace.events_per_req": "count", "trace.sink_ns": "ns", "telemetry.apply_ns": "ns",
		"span.build_ns_per_event": "ns", "span.verify_ns_per_span": "ns",
		"trace.verify_snapshots_ns_per_event": "ns", "span.audit_ns_per_req": "ns",
		"clock.lag_p50_us": "us", "clock.lag_p99_us": "us",
		"clock.submit_wait_p50_us": "us", "clock.submit_wait_p99_us": "us",
		"clock.busy_frac": "frac", "clock.pending_max": "count",
		"realtime.serve_us": "us", "realtime.complete_us": "us", "admission.admit_ns": "ns",
		"qosd.handler_us": "us", "qosd.decode_ns": "ns", "qosd.encode_ns": "ns",
		"qosd.scrape_us": "us", "net.loopback_us": "us", "loadgen.lag_p99_us": "us",
		"qosd.verdict_p50_ms": "ms", "qosd.verdict_p99_ms": "ms", "qosd.overhead_p99_us": "us",
		"qosd.miss_frac":    "frac",
		"qosd.max_rate_rps": "1/s",
		"error_frac":        "frac",
	}
)

// options are one invocation's settings.
type options struct {
	seed    uint64
	seconds float64
	trace   bool
}

// result is what a workload hands back: operation counts, failed output
// checks, metric values and free-form detail for the provenance line.
type result struct {
	attempted int64
	failed    int64
	checks    []string // failed output checks, each a one-line reason
	metrics   map[string]float64
	detail    map[string]any
	procs     int // GOMAXPROCS the workload ran at
}

// newResult starts a workload's result; the workload has already set the
// GOMAXPROCS it runs at.
func newResult() *result {
	return &result{metrics: map[string]float64{}, detail: map[string]any{}, procs: runtime.GOMAXPROCS(0)}
}

// fail records a failed output check.
func (r *result) fail(format string, args ...any) {
	r.checks = append(r.checks, fmt.Sprintf(format, args...))
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(options) (*result, error){
	"paper-cell":          runPaperCell,
	"lossy-overload-cell": runLossyCell,
	"qosd-loopback":       runQosd,
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: paper-cell, lossy-overload-cell or qosd-loopback")
		seed    = flag.Uint64("seed", 1, "workload seed")
		seconds = flag.Float64("seconds", 10, "measurement length in seconds")
		traced  = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics")
	)
	flag.Parse()
	run, ok := workloads[*name]
	if !ok {
		fatal("unknown workload %q", *name)
	}
	if *seconds <= 0 || *traced < 0 || *traced > 1 {
		fatal("invalid -seconds %g or -trace %d", *seconds, *traced)
	}
	opts := options{seed: *seed, seconds: *seconds, trace: *traced == 1}
	res, err := run(opts)
	if err != nil {
		fatal("%s: %v", *name, err)
	}
	line, err := report(*name, opts, res)
	if err != nil {
		fatal("%s: %v", *name, err)
	}
	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()
	prov, err := json.Marshal(map[string]any{
		"env":      environment(opts, *name, res.procs),
		"detail":   res.detail,
		"failures": res.checks,
	})
	if err != nil {
		fatal("%s: %v", *name, err)
	}
	fmt.Fprintf(out, "%s\n%s\n", prov, line)
}

// report renders the final result line: the end-to-end metrics untraced,
// the per-layer metrics traced. A per-layer metric the workload does not
// exercise reads 0; a missing end-to-end metric is a bug.
func report(name string, opts options, res *result) ([]byte, error) {
	names := endToEnd
	if opts.trace {
		names = perLayer
	}
	if res.attempted < 1 {
		return nil, fmt.Errorf("no operations attempted")
	}
	failed := res.failed + int64(len(res.checks))
	if opts.trace {
		res.metrics["error_frac"] = float64(failed) / float64(res.attempted)
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]metric, len(names))
	for _, n := range names {
		v, ok := res.metrics[n]
		if !ok && !opts.trace {
			return nil, fmt.Errorf("end-to-end metric %s not measured", n)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %g", n, v)
		}
		ms[n] = metric{Value: v, Unit: units[n]}
	}
	for _, c := range res.checks {
		fmt.Fprintf(os.Stderr, "perfbench: %s: check failed: %s\n", name, c)
	}
	return json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{failed == 0, res.attempted, failed, ms})
}

// environment is the provenance block printed with every result.
func environment(opts options, name string, procs int) map[string]any {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return map[string]any{
		"go":         runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"gomaxprocs": procs,
		"nproc":      runtime.NumCPU(),
		"cpu":        cpuModel(),
		"commit":     commit,
		"workload":   name,
		"seed":       opts.seed,
		"seconds":    opts.seconds,
		"trace":      opts.trace,
		"started":    time.Now().UTC().Format(time.RFC3339),
	}
}

// cpuModel reads the processor model name on Linux, "unknown" elsewhere.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// peakRSSMB is the process's peak resident set (VmHWM) in MiB, falling back
// to the Go runtime's total obtained memory where /proc is unavailable.
func peakRSSMB() float64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				var kb float64
				if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%g kB", &kb); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}
