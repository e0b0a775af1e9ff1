package svgplot

import (
	"math"
	"strings"
	"testing"
)

func sampleChart() Chart {
	return Chart{
		Title:  "Delay vs cutoff",
		XLabel: "K",
		YLabel: "delay",
		Series: []Series{
			{Name: "Class-A", X: []float64{10, 20, 30}, Y: []float64{5, 3, 4}},
			{Name: "Class-B", X: []float64{10, 20, 30}, Y: []float64{8, 6, 7}},
		},
	}
}

func TestRenderWellFormed(t *testing.T) {
	svg, err := sampleChart().Render()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"<svg", "</svg>", "Delay vs cutoff", "Class-A", "Class-B",
		"polyline", "circle",
	} {
		if !strings.Contains(svg, want) {
			t.Fatalf("missing %q in output", want)
		}
	}
	if strings.Count(svg, "<polyline") != 2 {
		t.Fatalf("%d polylines, want 2", strings.Count(svg, "<polyline"))
	}
	if strings.Count(svg, "<circle") != 6 {
		t.Fatalf("%d markers, want 6", strings.Count(svg, "<circle"))
	}
}

func TestRenderErrors(t *testing.T) {
	if _, err := (Chart{}).Render(); err == nil {
		t.Fatal("empty chart accepted")
	}
	bad := sampleChart()
	bad.Series[0].Y = bad.Series[0].Y[:2]
	if _, err := bad.Render(); err == nil {
		t.Fatal("mismatched lengths accepted")
	}
	nan := sampleChart()
	nan.Series[0].Y[1] = math.NaN()
	if _, err := nan.Render(); err == nil {
		t.Fatal("NaN accepted")
	}
	empty := sampleChart()
	empty.Series[0].X = nil
	empty.Series[0].Y = nil
	if _, err := empty.Render(); err == nil {
		t.Fatal("empty series accepted")
	}
}

func TestRenderEscapesMarkup(t *testing.T) {
	c := sampleChart()
	c.Title = `<script>"evil" & more</script>`
	svg, err := c.Render()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(svg, "<script>") {
		t.Fatal("markup not escaped")
	}
	if !strings.Contains(svg, "&lt;script&gt;") {
		t.Fatal("escaped title missing")
	}
}

func TestRenderDegenerateRanges(t *testing.T) {
	// Single point and constant series must not divide by zero.
	c := Chart{Series: []Series{{Name: "pt", X: []float64{5}, Y: []float64{7}}}}
	svg, err := c.Render()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(svg, "circle") {
		t.Fatal("no marker for single point")
	}
	flat := Chart{Series: []Series{{Name: "flat", X: []float64{1, 2}, Y: []float64{3, 3}}}}
	if _, err := flat.Render(); err != nil {
		t.Fatal(err)
	}
}

func TestRenderNegativeValues(t *testing.T) {
	c := Chart{Series: []Series{{Name: "neg", X: []float64{0, 1}, Y: []float64{-5, 5}}}}
	if _, err := c.Render(); err != nil {
		t.Fatal(err)
	}
}

func TestCustomDimensions(t *testing.T) {
	c := sampleChart()
	c.Width, c.Height = 400, 300
	svg, err := c.Render()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(svg, `width="400" height="300"`) {
		t.Fatal("custom dimensions ignored")
	}
}

func TestTicksCoverRange(t *testing.T) {
	for _, tc := range []struct{ lo, hi float64 }{
		{0, 100}, {0.3, 0.9}, {-50, 50}, {7, 7.1},
	} {
		ts := ticks(tc.lo, tc.hi, 6)
		if len(ts) < 2 {
			t.Fatalf("range [%g,%g]: %d ticks", tc.lo, tc.hi, len(ts))
		}
		for i, v := range ts {
			if v < tc.lo-1e-9 || v > tc.hi+1e-9 {
				t.Fatalf("tick %g outside [%g,%g]", v, tc.lo, tc.hi)
			}
			if i > 0 && v <= ts[i-1] {
				t.Fatal("ticks not increasing")
			}
		}
	}
}

func TestFmtTick(t *testing.T) {
	if fmtTick(42) != "42" {
		t.Fatalf("fmtTick(42) = %q", fmtTick(42))
	}
	if fmtTick(0.25) != "0.25" {
		t.Fatalf("fmtTick(0.25) = %q", fmtTick(0.25))
	}
}
