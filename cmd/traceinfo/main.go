// Command traceinfo analyses a JSONL event trace written by
// `hybridsim -trace` (or hybridqos.WriteTrace): event counts, per-class
// delay statistics recomputed independently of the simulator's live
// collectors, fault-event summaries, transmission mix, and a coarse timeline
// of queue pressure. With -timeline it additionally lowers the trace's
// embedded telemetry snapshots (see `hybridsim -telemetry-every`) to
// per-class delay-percentile and queue-depth time series — after auditing
// every snapshot against an independent event replay — and writes them as
// CSV plus two SVG charts. With -spans it reconstructs the sampled
// per-request spans embedded in the trace (see `hybridsim -spans`), audits
// them against the event replay, prints outcome and segment summaries, and
// can export them as Perfetto or OTLP-style JSON — the only span-export path
// for multi-cell cluster traces.
//
// Usage:
//
//	hybridsim -horizon 5000 -reps 1 -telemetry-every 100 -trace run.jsonl
//	traceinfo run.jsonl
//	traceinfo -timeline run run.jsonl    # writes run.csv, run-delay.svg, run-queue.svg
//	traceinfo -spans -perfetto spans.json run.jsonl
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"

	"hybridqos/internal/clients"
	"hybridqos/internal/report"
	"hybridqos/internal/span"
	"hybridqos/internal/stats"
	"hybridqos/internal/telemetry"
	"hybridqos/internal/trace"
)

// options bundles the command's flags.
type options struct {
	classes  int
	buckets  int
	timeline string // artefact path prefix; empty disables the timeline export
	spans    bool   // reconstruct and summarise per-request spans
	perfetto string // span export paths; empty disables (both imply -spans)
	otlp     string
}

func main() {
	var opts options
	flag.IntVar(&opts.classes, "classes", 3, "number of service classes in the trace")
	flag.IntVar(&opts.buckets, "buckets", 10, "timeline buckets")
	flag.StringVar(&opts.timeline, "timeline", "", "write snapshot time series to <prefix>.csv, <prefix>-delay.svg and <prefix>-queue.svg")
	flag.BoolVar(&opts.spans, "spans", false, "reconstruct per-request spans (recorded with hybridsim -spans), audit them against the event replay, and print summaries")
	flag.StringVar(&opts.perfetto, "perfetto", "", "write reconstructed spans as Perfetto/Chrome trace-event JSON (implies -spans)")
	flag.StringVar(&opts.otlp, "otlp", "", "write reconstructed spans as compact OTLP-style JSON (implies -spans)")
	flag.Parse()
	if flag.NArg() != 1 {
		fatal("usage: traceinfo [-classes n] [-timeline prefix] [-spans] [-perfetto out.json] [-otlp out.json] <trace.jsonl>")
	}
	f, err := os.Open(flag.Arg(0))
	if err != nil {
		fatal("%v", err)
	}
	defer f.Close()
	events, err := trace.Read(f)
	if err != nil {
		fatal("%v", err)
	}
	if err := run(os.Stdout, events, opts); err != nil {
		fatal("%v", err)
	}
}

// run performs the whole analysis, printing to w and (for -timeline) writing
// artefact files. Split from main so tests can drive it.
func run(w io.Writer, events []trace.Event, opts options) error {
	if len(events) == 0 {
		return fmt.Errorf("empty trace")
	}
	writeCensus(w, events)
	if err := writeDelays(w, events, opts.classes); err != nil {
		return err
	}
	writeFaults(w, events, opts.classes)
	writeCells(w, events, opts.classes)
	writeMix(w, events)
	writeCoarseTimeline(w, events, opts.buckets)
	if opts.timeline != "" {
		if err := writeTimeline(w, events, opts.timeline); err != nil {
			return err
		}
	}
	if opts.spans || opts.perfetto != "" || opts.otlp != "" {
		if err := writeSpans(w, events, opts); err != nil {
			return err
		}
	}
	return nil
}

// writeCensus prints the per-kind event counts.
func writeCensus(w io.Writer, events []trace.Event) {
	counts := map[trace.Kind]int64{}
	for _, e := range events {
		counts[e.Kind]++
	}
	kinds := make([]trace.Kind, 0, len(counts))
	for k := range counts {
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i].String() < kinds[j].String() })
	fmt.Fprintf(w, "trace: %d events over [%.1f, %.1f] broadcast units\n\n",
		len(events), events[0].T, events[len(events)-1].T)
	census := report.NewTable("Event census", "kind", "count")
	for _, k := range kinds {
		census.AddRow(k.String(), fmt.Sprint(counts[k]))
	}
	fmt.Fprintln(w, census.String())
}

// writeDelays prints the per-class delay statistics replayed from the trace.
func writeDelays(w io.Writer, events []trace.Event, classes int) error {
	perClass, err := trace.Replay(events, classes)
	if err != nil {
		return err
	}
	// Percentiles need the raw delays.
	hists := make([]stats.Histogram, classes)
	for _, e := range events {
		if e.Kind == trace.KindServed {
			hists[e.Class].Add(e.T - e.Arrival)
		}
	}
	tbl := report.NewTable("Per-class delays (replayed from trace)",
		"class", "served", "mean", "p50", "p95", "max")
	for c := 0; c < classes; c++ {
		h := &hists[c]
		tbl.AddRow(clients.Class(c).String(),
			fmt.Sprint(perClass[c].Served),
			report.FormatFloat(perClass[c].MeanDelay(), "%.2f"),
			report.FormatFloat(h.Percentile(50), "%.2f"),
			report.FormatFloat(h.Percentile(95), "%.2f"),
			report.FormatFloat(h.Percentile(100), "%.2f"))
	}
	fmt.Fprintln(w, tbl.String())
	return nil
}

// writeFaults prints the per-class fault-event summary (corruptions, client
// retries, admission sheds), skipped entirely when the trace has no fault
// events. Corrupted push broadcasts carry no class (class −1 in the trace)
// and appear as the "broadcast" row.
func writeFaults(w io.Writer, events []trace.Event, classes int) {
	const broadcastRow = -1
	corrupt := map[int]int64{}
	retries := map[int]int64{}
	shed := map[int]int64{}
	var total int64
	for _, e := range events {
		c := int(e.Class)
		switch e.Kind {
		case trace.KindCorrupt:
			corrupt[c]++
		case trace.KindRetry:
			retries[c]++
		case trace.KindShed:
			shed[c]++
		default:
			continue
		}
		total++
	}
	if total == 0 {
		return
	}
	label := func(c int) string {
		if c == broadcastRow {
			return "broadcast"
		}
		return clients.Class(c).String()
	}
	tbl := report.NewTable("Fault events by class", "class", "corrupt", "retries", "shed")
	for c := broadcastRow; c < classes; c++ {
		if corrupt[c] == 0 && retries[c] == 0 && shed[c] == 0 {
			continue
		}
		tbl.AddRow(label(c),
			fmt.Sprint(corrupt[c]), fmt.Sprint(retries[c]), fmt.Sprint(shed[c]))
	}
	fmt.Fprintln(w, tbl.String())
}

// writeCells prints the per-cell breakdown of a multi-cell (cluster) trace:
// requests, accepted handoffs and refused handoffs by class. Single-cell
// traces — no cell stamps, no handoff events — skip the table entirely.
func writeCells(w io.Writer, events []trace.Event, classes int) {
	multi := false
	for _, e := range events {
		if e.Cell != 0 || e.Kind == trace.KindHandoff || e.Kind == trace.KindHandoffRefused {
			multi = true
			break
		}
	}
	if !multi {
		return
	}
	// refusalReasons is the fixed handoff-refusal taxonomy (trace.Event.Reason
	// on KindHandoffRefused), in display order.
	refusalReasons := []string{"expired", "shed", "horizon", "no-item"}
	reasonCol := map[string]int{}
	for i, r := range refusalReasons {
		reasonCol[r] = i
	}
	type cellRow struct {
		arrivals, handoffs, refusals []int64
		byReason                     []int64
	}
	rows := map[int]*cellRow{}
	get := func(cell int) *cellRow {
		r := rows[cell]
		if r == nil {
			r = &cellRow{
				arrivals: make([]int64, classes),
				handoffs: make([]int64, classes),
				refusals: make([]int64, classes),
				byReason: make([]int64, len(refusalReasons)),
			}
			rows[cell] = r
		}
		return r
	}
	for _, e := range events {
		c := int(e.Class)
		if c < 0 || c >= classes {
			continue
		}
		switch e.Kind {
		case trace.KindArrival:
			get(e.Cell).arrivals[c]++
		case trace.KindHandoff:
			get(e.Cell).handoffs[c]++
		case trace.KindHandoffRefused:
			r := get(e.Cell)
			r.refusals[c]++
			if col, known := reasonCol[e.Reason.String()]; known {
				r.byReason[col]++
			}
		}
	}
	ids := make([]int, 0, len(rows))
	for id := range rows {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	perClass := func(counts []int64) string {
		s := ""
		for c, n := range counts {
			if c > 0 {
				s += "/"
			}
			s += fmt.Sprint(n)
		}
		return s
	}
	sum := func(counts []int64) int64 {
		var n int64
		for _, v := range counts {
			n += v
		}
		return n
	}
	cols := []string{"cell", "requests", "by class", "handoffs", "by class", "refused", "by class"}
	cols = append(cols, refusalReasons...)
	tbl := report.NewTable("Per-cell breakdown (class A/B/C...)", cols...)
	for _, id := range ids {
		r := rows[id]
		row := []string{fmt.Sprint(id),
			fmt.Sprint(sum(r.arrivals)), perClass(r.arrivals),
			fmt.Sprint(sum(r.handoffs)), perClass(r.handoffs),
			fmt.Sprint(sum(r.refusals)), perClass(r.refusals)}
		for _, n := range r.byReason {
			row = append(row, fmt.Sprint(n))
		}
		tbl.AddRow(row...)
	}
	fmt.Fprintln(w, tbl.String())
}

// writeMix prints the pull multicast efficiency.
func writeMix(w io.Writer, events []trace.Event) {
	var pullTx, pullReqs int64
	for _, e := range events {
		if e.Kind == trace.KindPullComplete {
			pullTx++
			pullReqs += int64(e.Requests)
		}
	}
	if pullTx > 0 {
		fmt.Fprintf(w, "pull multicast efficiency: %.2f requests satisfied per transmission\n\n",
			float64(pullReqs)/float64(pullTx))
	}
}

// writeCoarseTimeline prints arrivals and pull transmissions per bucket.
func writeCoarseTimeline(w io.Writer, events []trace.Event, buckets int) {
	span := events[len(events)-1].T - events[0].T
	if span <= 0 || buckets <= 0 {
		return
	}
	arr := make([]int, buckets)
	pull := make([]int, buckets)
	for _, e := range events {
		b := int((e.T - events[0].T) / span * float64(buckets))
		if b >= buckets {
			b = buckets - 1
		}
		switch e.Kind {
		case trace.KindArrival:
			arr[b]++
		case trace.KindPullComplete:
			pull[b]++
		}
	}
	tl := report.NewTable("Timeline", "bucket", "arrivals", "pull transmissions")
	for b := 0; b < buckets; b++ {
		tl.AddRow(fmt.Sprintf("%2d", b), fmt.Sprint(arr[b]), fmt.Sprint(pull[b]))
	}
	fmt.Fprintln(w, tl.String())
}

// writeTimeline audits the trace's embedded telemetry snapshots against an
// event replay, lowers them to time series, and writes <prefix>.csv plus
// the delay and queue SVG charts.
func writeTimeline(w io.Writer, events []trace.Event, prefix string) error {
	x, err := trace.WriteTimeline(events, prefix)
	var audit *trace.AuditError
	switch {
	case errors.Is(err, trace.ErrNoSnapshots):
		return fmt.Errorf("no telemetry snapshots in trace; record one with hybridsim -telemetry-every")
	case errors.As(err, &audit):
		return fmt.Errorf("snapshot audit FAILED: %w", audit.Err)
	case err != nil:
		return err
	}
	fmt.Fprintf(w, "snapshot audit: %d snapshots reproduced exactly by event replay\n", x.Snapshots)
	fmt.Fprintf(w, "timeline: %d ticks, %d classes -> %s, %s, %s\n",
		x.Timeline.Ticks(), len(x.Timeline.PerClass), x.CSV, x.DelaySVG, x.QueueSVG)
	return nil
}

// writeSpans reconstructs the trace's sampled per-request spans, audits them
// (segment tiling, terminal consistency, decision attachment), prints outcome
// and segment summaries, and optionally exports Perfetto / OTLP JSON files.
func writeSpans(w io.Writer, events []trace.Event, opts options) error {
	spans, err := span.Build(events)
	if err != nil {
		return fmt.Errorf("span reconstruction: %w", err)
	}
	if len(spans) == 0 {
		return fmt.Errorf("no span events in trace; record them with hybridsim -spans")
	}
	if err := span.Verify(spans); err != nil {
		return fmt.Errorf("span audit FAILED: %w", err)
	}
	var open int
	for _, sp := range spans {
		if sp.Open {
			open++
		}
	}
	fmt.Fprintf(w, "span audit: %d spans reconstructed (%d still open at trace end); segments tile every lifetime\n\n",
		len(spans), open)

	// Outcome table: count, mean effective delay, provenance volume.
	type outRow struct {
		count, retries, losses, crossCell int64
		delaySum                          float64
	}
	byOutcome := map[string]*outRow{}
	for _, sp := range spans {
		key := sp.Outcome.String()
		if sp.Open {
			key = "(open)"
		}
		r := byOutcome[key]
		if r == nil {
			r = &outRow{}
			byOutcome[key] = r
		}
		r.count++
		r.retries += int64(sp.Retries)
		r.losses += int64(sp.Losses)
		if len(sp.Cells) > 1 {
			r.crossCell++
		}
		r.delaySum += sp.Delay()
	}
	outcomes := make([]string, 0, len(byOutcome))
	for k := range byOutcome {
		outcomes = append(outcomes, k)
	}
	sort.Strings(outcomes)
	ot := report.NewTable("Sampled spans by outcome",
		"outcome", "spans", "mean delay", "retries", "losses", "cross-cell")
	for _, k := range outcomes {
		r := byOutcome[k]
		ot.AddRow(k, fmt.Sprint(r.count),
			report.FormatFloat(r.delaySum/float64(r.count), "%.2f"),
			fmt.Sprint(r.retries), fmt.Sprint(r.losses), fmt.Sprint(r.crossCell))
	}
	fmt.Fprintln(w, ot.String())

	// Segment table: where sampled requests spent their time.
	type segRow struct {
		count    int64
		duration float64
	}
	bySeg := map[string]*segRow{}
	for _, sp := range spans {
		for _, seg := range sp.Segments {
			r := bySeg[seg.Kind]
			if r == nil {
				r = &segRow{}
				bySeg[seg.Kind] = r
			}
			r.count++
			r.duration += seg.Duration()
		}
	}
	kinds := make([]string, 0, len(bySeg))
	for k := range bySeg {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	st := report.NewTable("Span segments", "kind", "count", "total units", "mean units")
	for _, k := range kinds {
		r := bySeg[k]
		st.AddRow(k, fmt.Sprint(r.count),
			report.FormatFloat(r.duration, "%.2f"),
			report.FormatFloat(r.duration/float64(r.count), "%.3f"))
	}
	fmt.Fprintln(w, st.String())

	if opts.perfetto != "" {
		if err := span.WriteFile(opts.perfetto, spans, span.WritePerfetto); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %d spans as Perfetto trace-event JSON to %s\n", len(spans), opts.perfetto)
	}
	if opts.otlp != "" {
		if err := span.WriteFile(opts.otlp, spans, span.WriteOTLP); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %d spans as OTLP-style JSON to %s\n", len(spans), opts.otlp)
	}
	return nil
}

// timelineHasData reports whether any class produced at least one finite
// windowed percentile — a guard the tests use.
func timelineHasData(tl *telemetry.Timeline) bool {
	for _, ct := range tl.PerClass {
		for _, v := range ct.P95 {
			if !math.IsNaN(v) {
				return true
			}
		}
	}
	return false
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "traceinfo: "+format+"\n", args...)
	os.Exit(1)
}
