package report

import (
	"math"
	"strings"
	"testing"
)

func TestTableRendering(t *testing.T) {
	tbl := NewTable("Title", "K", "Delay")
	tbl.AddRow("10", "5.2")
	tbl.AddRow("100", "42.0")
	out := tbl.String()
	if !strings.HasPrefix(out, "Title\n") {
		t.Fatalf("missing title: %q", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, separator, 2 rows
		t.Fatalf("expected 5 lines, got %d: %q", len(lines), out)
	}
}

func TestTableLineCount(t *testing.T) {
	tbl := NewTable("T", "A", "B")
	tbl.AddRow("1", "2")
	tbl.AddRow("3", "4")
	lines := strings.Split(strings.TrimRight(tbl.String(), "\n"), "\n")
	// title + header + separator + 2 rows
	if len(lines) != 5 {
		t.Fatalf("%d lines: %q", len(lines), tbl.String())
	}
}

func TestTableAlignment(t *testing.T) {
	tbl := NewTable("", "col", "x")
	tbl.AddRow("verylongcell", "1")
	lines := strings.Split(tbl.String(), "\n")
	// Header line must be padded to the widest cell.
	if !strings.HasPrefix(lines[0], "col         ") {
		t.Fatalf("header not padded: %q", lines[0])
	}
}

func TestTableRaggedRows(t *testing.T) {
	tbl := NewTable("", "a", "b", "c")
	tbl.AddRow("1")                // short: pads
	tbl.AddRow("1", "2", "3", "4") // long: truncates
	if len(tbl.rows) != 2 {
		t.Fatalf("rows = %d", len(tbl.rows))
	}
	out := tbl.String()
	if strings.Contains(out, "4") {
		t.Fatalf("extra cell not dropped: %q", out)
	}
}

func TestAddFloats(t *testing.T) {
	tbl := NewTable("", "k", "v1", "v2", "v3")
	tbl.AddFloats("10", "%.2f", 1.5, math.NaN(), math.Inf(1))
	out := tbl.String()
	for _, want := range []string{"1.50", "-", "inf"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in %q", want, out)
		}
	}
}

func TestFormatFloat(t *testing.T) {
	cases := map[string]string{
		FormatFloat(1.234, "%.1f"):        "1.2",
		FormatFloat(math.NaN(), "%.1f"):   "-",
		FormatFloat(math.Inf(1), "%.1f"):  "inf",
		FormatFloat(math.Inf(-1), "%.1f"): "-inf",
	}
	for got, want := range cases {
		if got != want {
			t.Errorf("FormatFloat got %q want %q", got, want)
		}
	}
}

func TestCSVBasic(t *testing.T) {
	c := NewCSV("k", "delay")
	c.AddRow("10", "5.2")
	c.AddRow("20", "6.1")
	want := "k,delay\n10,5.2\n20,6.1\n"
	if got := c.String(); got != want {
		t.Fatalf("got %q want %q", got, want)
	}
	if len(c.rows) != 2 {
		t.Fatalf("rows = %d", len(c.rows))
	}
}

func TestCSVEscaping(t *testing.T) {
	c := NewCSV("a")
	c.AddRow(`with,comma`)
	c.AddRow(`with"quote`)
	c.AddRow("with\nnewline")
	got := c.String()
	for _, want := range []string{`"with,comma"`, `"with""quote"`, "\"with\nnewline\""} {
		if !strings.Contains(got, want) {
			t.Fatalf("missing %q in %q", want, got)
		}
	}
}

func TestCSVRowCopying(t *testing.T) {
	c := NewCSV("a", "b")
	cells := []string{"1", "2"}
	c.AddRow(cells...)
	cells[0] = "mutated"
	if strings.Contains(c.String(), "mutated") {
		t.Fatal("AddRow did not copy cells")
	}
}

func TestTableMultibyteAlignment(t *testing.T) {
	tbl := NewTable("", "θ̂", "value")
	tbl.AddRow("1.00", "x")
	lines := strings.Split(tbl.String(), "\n")
	// The separator under a multibyte header must match its rune width.
	if !strings.HasPrefix(lines[1], strings.Repeat("-", 4)) {
		t.Fatalf("separator mis-sized for multibyte header: %q", lines[1])
	}
	// The header cell "θ̂" is 2 runes; the data cell "1.00" is 4: the
	// header must be padded to 4 columns before the gap.
	if !strings.Contains(lines[0], "value") {
		t.Fatalf("header line broken: %q", lines[0])
	}
}
