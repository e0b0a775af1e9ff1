package telemetry

import "strconv"

// promPrefix starts every exposed metric name.
const promPrefix = "hybridqos_"

// AppendProm appends a snapshot rendered in the Prometheus text exposition
// format (version 0.0.4) to b and returns the extended buffer: counters as
// `hybridqos_<name>_total`, gauges as `hybridqos_<name>`, histograms as the
// conventional `_bucket`/`_sum`/`_count` triple with cumulative `le`
// buckets. Class-labelled metrics carry a `class` label with the numeric
// class index. Output order follows the snapshot's sorted sections, so
// identical snapshots render to identical bytes; a TYPE line is written
// whenever the full metric name differs from the previous TYPE line's, in
// any section. The renderer allocates only to grow b, and it is tolerant of
// snapshots decoded from untrusted input: histogram count slices of any
// length render without panicking. s must be non-nil.
func AppendProm(b []byte, s *Snapshot) []byte {
	b = append(b, "# TYPE hybridqos_sim_time gauge\nhybridqos_sim_time "...)
	b = promFloat(b, s.T)
	b = append(b, '\n')
	// b[lastStart:lastEnd] is the previous TYPE line's metric name.
	lastStart, lastEnd := 0, 0
	typeLine := func(name, suffix, kind string) {
		prev := b[lastStart:lastEnd]
		if len(prev) == len(promPrefix)+len(name)+len(suffix) &&
			string(prev[len(promPrefix):len(promPrefix)+len(name)]) == name &&
			string(prev[len(promPrefix)+len(name):]) == suffix {
			return
		}
		b = append(b, "# TYPE "...)
		lastStart = len(b)
		b = append(append(append(b, promPrefix...), name...), suffix...)
		lastEnd = len(b)
		b = append(append(append(b, ' '), kind...), '\n')
	}
	for _, c := range s.Counters {
		typeLine(c.Name, "_total", "counter")
		b = promSeries(b, c.Name, "_total", c.Class, -1)
		b = append(strconv.AppendInt(b, c.V, 10), '\n')
	}
	for _, g := range s.Gauges {
		typeLine(g.Name, "", "gauge")
		b = promSeries(b, g.Name, "", g.Class, -1)
		b = append(promFloat(b, g.V), '\n')
	}
	for _, h := range s.Hists {
		typeLine(h.Name, "", "histogram")
		var cum int64
		for i := range delayBounds {
			if i < len(h.Counts) {
				cum += h.Counts[i]
			}
			b = promSeries(b, h.Name, "_bucket", h.Class, i)
			b = append(strconv.AppendInt(b, cum, 10), '\n')
		}
		n := h.N()
		b = promSeries(b, h.Name, "_bucket", h.Class, len(delayBounds))
		b = append(strconv.AppendInt(b, n, 10), '\n')
		b = promSeries(b, h.Name, "_sum", h.Class, -1)
		b = append(promFloat(b, h.Sum), '\n')
		b = promSeries(b, h.Name, "_count", h.Class, -1)
		b = append(strconv.AppendInt(b, n, 10), '\n')
	}
	return b
}

// promSeries appends one sample's series name, label set and the space
// before its value: the class label when the metric is class-keyed, and the
// `le` label of delay bucket bucket (−1 for none; len(delayBounds) is the
// +Inf overflow bucket).
func promSeries(b []byte, name, suffix string, class, bucket int) []byte {
	b = append(append(append(b, promPrefix...), name...), suffix...)
	if class != ClassNone || bucket >= 0 {
		b = append(b, '{')
		if class != ClassNone {
			b = append(strconv.AppendInt(append(b, `class="`...), int64(class), 10), '"')
			if bucket >= 0 {
				b = append(b, ',')
			}
		}
		if bucket >= 0 {
			b = append(b, `le="`...)
			if bucket < len(delayBounds) {
				b = promFloat(b, delayBounds[bucket])
			} else {
				b = append(b, "+Inf"...)
			}
			b = append(b, '"')
		}
		b = append(b, '}')
	}
	return append(b, ' ')
}

// promFloat appends a float the way Prometheus expects: the shortest
// round-trip form, with NaN and the infinities spelled NaN, +Inf and -Inf
// (strconv's own spelling).
func promFloat(b []byte, v float64) []byte {
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}
