// Package svgplot renders line charts as standalone SVG documents using
// only the standard library — enough to turn the experiment harness's
// figure series into viewable artefacts without any plotting dependency.
// The output is deliberately simple: one chart, linear axes with tick
// labels, colour-cycled polylines, point markers and a legend.
package svgplot

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Series is one named polyline.
type Series struct {
	// Name appears in the legend.
	Name string
	// X and Y are the data points, index-aligned.
	X, Y []float64
}

// Chart is a renderable line chart.
type Chart struct {
	// Title is drawn across the top.
	Title string
	// XLabel and YLabel name the axes.
	XLabel, YLabel string
	// Series holds the curves.
	Series []Series
	// Width and Height are the SVG pixel dimensions (0 → 760×440).
	Width, Height int
	// AllowGaps renders non-finite points (NaN/Inf) as gaps: they are
	// excluded from the axis bounds and split the series' polyline, instead
	// of failing the render. Each series still needs at least one finite
	// point. Useful for windowed time series where some windows are empty
	// (e.g. a percentile over an interval with no observations).
	AllowGaps bool
}

// palette is a colour-blind-friendly categorical cycle.
var palette = []string{
	"#4477AA", "#EE6677", "#228833", "#CCBB44", "#66CCEE", "#AA3377", "#BBBBBB",
	"#222255", "#225555", "#225522",
}

// Render produces the SVG document. It errors on an empty chart, series with
// mismatched X/Y lengths, or non-finite values.
func (c Chart) Render() (string, error) {
	if len(c.Series) == 0 {
		return "", fmt.Errorf("svgplot: no series")
	}
	w, h := c.Width, c.Height
	if w <= 0 {
		w = 760
	}
	if h <= 0 {
		h = 440
	}

	// Data bounds.
	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := math.Inf(1), math.Inf(-1)
	for _, s := range c.Series {
		if len(s.X) != len(s.Y) || len(s.X) == 0 {
			return "", fmt.Errorf("svgplot: series %q has %d x vs %d y points", s.Name, len(s.X), len(s.Y))
		}
		finitePoints := 0
		for i := range s.X {
			if !finite(s.X[i]) || !finite(s.Y[i]) {
				if c.AllowGaps {
					continue
				}
				return "", fmt.Errorf("svgplot: series %q has non-finite point %d", s.Name, i)
			}
			finitePoints++
			minX, maxX = math.Min(minX, s.X[i]), math.Max(maxX, s.X[i])
			minY, maxY = math.Min(minY, s.Y[i]), math.Max(maxY, s.Y[i])
		}
		if finitePoints == 0 {
			return "", fmt.Errorf("svgplot: series %q has no finite points", s.Name)
		}
	}
	if minX == maxX {
		minX, maxX = minX-1, maxX+1
	}
	// Y axis starts at 0 when the data is non-negative (bar-chart honesty).
	if minY >= 0 {
		minY = 0
	}
	if minY == maxY {
		maxY = minY + 1
	}
	// Head-room for the top tick.
	maxY += (maxY - minY) * 0.05

	const (
		padL, padR, padT, padB = 70, 160, 40, 50
	)
	plotW := float64(w - padL - padR)
	plotH := float64(h - padT - padB)
	sx := func(x float64) float64 { return float64(padL) + (x-minX)/(maxX-minX)*plotW }
	sy := func(y float64) float64 { return float64(padT) + (1-(y-minY)/(maxY-minY))*plotH }

	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d">`, w, h, w, h)
	b.WriteString(`<style>text{font-family:sans-serif;font-size:11px;fill:#333}.t{font-size:14px;font-weight:bold}</style>`)
	fmt.Fprintf(&b, `<rect width="%d" height="%d" fill="white"/>`, w, h)
	if c.Title != "" {
		fmt.Fprintf(&b, `<text class="t" x="%d" y="22" text-anchor="middle">%s</text>`, w/2, escape(c.Title))
	}

	// Gridlines and ticks.
	for _, t := range ticks(minY, maxY, 6) {
		y := sy(t)
		fmt.Fprintf(&b, `<line x1="%d" y1="%.1f" x2="%d" y2="%.1f" stroke="#ddd"/>`, padL, y, w-padR, y)
		fmt.Fprintf(&b, `<text x="%d" y="%.1f" text-anchor="end">%s</text>`, padL-6, y+4, fmtTick(t))
	}
	for _, t := range ticks(minX, maxX, 8) {
		x := sx(t)
		fmt.Fprintf(&b, `<line x1="%.1f" y1="%d" x2="%.1f" y2="%d" stroke="#eee"/>`, x, padT, x, h-padB)
		fmt.Fprintf(&b, `<text x="%.1f" y="%d" text-anchor="middle">%s</text>`, x, h-padB+16, fmtTick(t))
	}
	// Axes.
	fmt.Fprintf(&b, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="#333"/>`, padL, h-padB, w-padR, h-padB)
	fmt.Fprintf(&b, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="#333"/>`, padL, padT, padL, h-padB)
	if c.XLabel != "" {
		fmt.Fprintf(&b, `<text x="%d" y="%d" text-anchor="middle">%s</text>`, (padL+w-padR)/2, h-12, escape(c.XLabel))
	}
	if c.YLabel != "" {
		fmt.Fprintf(&b, `<text x="14" y="%d" text-anchor="middle" transform="rotate(-90 14 %d)">%s</text>`,
			(padT+h-padB)/2, (padT+h-padB)/2, escape(c.YLabel))
	}

	// Series.
	for i, s := range c.Series {
		color := palette[i%len(palette)]
		// Non-finite points (only reachable under AllowGaps) end the current
		// polyline segment; finite runs on either side render separately.
		var segments [][]string
		var cur []string
		for j := range s.X {
			if !finite(s.X[j]) || !finite(s.Y[j]) {
				if len(cur) > 0 {
					segments = append(segments, cur)
					cur = nil
				}
				continue
			}
			cur = append(cur, fmt.Sprintf("%.1f,%.1f", sx(s.X[j]), sy(s.Y[j])))
		}
		if len(cur) > 0 {
			segments = append(segments, cur)
		}
		for _, seg := range segments {
			fmt.Fprintf(&b, `<polyline points="%s" fill="none" stroke="%s" stroke-width="1.8"/>`,
				strings.Join(seg, " "), color)
		}
		for j := range s.X {
			if !finite(s.X[j]) || !finite(s.Y[j]) {
				continue
			}
			fmt.Fprintf(&b, `<circle cx="%.1f" cy="%.1f" r="2.4" fill="%s"/>`, sx(s.X[j]), sy(s.Y[j]), color)
		}
		// Legend entry.
		ly := padT + 14*i
		fmt.Fprintf(&b, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="%s" stroke-width="2"/>`,
			w-padR+8, ly, w-padR+28, ly, color)
		fmt.Fprintf(&b, `<text x="%d" y="%d">%s</text>`, w-padR+33, ly+4, escape(s.Name))
	}
	b.WriteString(`</svg>`)
	return b.String(), nil
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// ticks returns ≈n nicely rounded tick positions covering [lo, hi].
func ticks(lo, hi float64, n int) []float64 {
	if n < 2 {
		n = 2
	}
	span := hi - lo
	step := math.Pow(10, math.Floor(math.Log10(span/float64(n))))
	for _, m := range []float64{1, 2, 5, 10} {
		if span/(step*m) <= float64(n) {
			step *= m
			break
		}
	}
	var out []float64
	for t := math.Ceil(lo/step) * step; t <= hi+1e-9; t += step {
		out = append(out, t)
	}
	return out
}

func fmtTick(t float64) string {
	if t == math.Trunc(t) && math.Abs(t) < 1e6 {
		return fmt.Sprintf("%d", int64(t))
	}
	return fmt.Sprintf("%.2g", t)
}

func escape(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")
	return r.Replace(s)
}

// SortedByName returns the series sorted by name (stable output for tests
// and deterministic legends when the caller built them from a map).
//
//lint:allow deadcode pending deletion with its only test, TestSortedByName (see ROADMAP)
func SortedByName(ss []Series) []Series {
	out := append([]Series(nil), ss...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
