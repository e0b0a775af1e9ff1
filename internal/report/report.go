// Package report renders experiment output: fixed-width ASCII tables for the
// terminal and CSV for downstream plotting. The figure generators in
// internal/experiments emit their series through this package so every CLI
// and benchmark prints consistently.
package report

import (
	"fmt"
	"io"
	"math"
	"strings"
	"unicode/utf8"
)

// Table is a simple column-aligned text table.
type Table struct {
	title   string
	headers []string
	rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{title: title, headers: headers}
}

// AddRow appends a row; cells beyond the header count are dropped, missing
// cells render empty.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.headers))
	for i := range row {
		if i < len(cells) {
			row[i] = cells[i]
		}
	}
	t.rows = append(t.rows, row)
}

// AddFloats appends a row of formatted floats after a leading label cell.
func (t *Table) AddFloats(label string, format string, values ...float64) {
	cells := make([]string, 0, len(values)+1)
	cells = append(cells, label)
	for _, v := range values {
		cells = append(cells, FormatFloat(v, format))
	}
	t.AddRow(cells...)
}

// FormatFloat renders a float with the given fmt verb, showing NaN and Inf
// readably.
func FormatFloat(v float64, format string) string {
	switch {
	case math.IsNaN(v):
		return "-"
	case math.IsInf(v, 1):
		return "inf"
	case math.IsInf(v, -1):
		return "-inf"
	default:
		return fmt.Sprintf(format, v)
	}
}

// WriteTo renders the table. It implements io.WriterTo.
func (t *Table) WriteTo(w io.Writer) (int64, error) {
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = utf8.RuneCountInString(h)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if n := utf8.RuneCountInString(cell); n > widths[i] {
				widths[i] = n
			}
		}
	}
	var b strings.Builder
	if t.title != "" {
		b.WriteString(t.title)
		b.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(pad(cell, widths[i]))
		}
		b.WriteByte('\n')
	}
	writeRow(t.headers)
	sep := make([]string, len(t.headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}

// String renders the table to a string.
func (t *Table) String() string {
	var b strings.Builder
	_, _ = t.WriteTo(&b)
	return b.String()
}

func pad(s string, w int) string {
	n := utf8.RuneCountInString(s)
	if n >= w {
		return s
	}
	return s + strings.Repeat(" ", w-n)
}

// CSV renders rows as RFC-4180-ish CSV (quoting cells containing commas,
// quotes or newlines).
type CSV struct {
	headers []string
	rows    [][]string
}

// NewCSV creates a CSV document with the given header row.
func NewCSV(headers ...string) *CSV {
	return &CSV{headers: headers}
}

// AddRow appends a record; its arity should match the header.
func (c *CSV) AddRow(cells ...string) {
	row := make([]string, len(cells))
	copy(row, cells)
	c.rows = append(c.rows, row)
}

// WriteTo renders the document. It implements io.WriterTo.
func (c *CSV) WriteTo(w io.Writer) (int64, error) {
	var b strings.Builder
	writeRecord := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(escapeCSV(cell))
		}
		b.WriteByte('\n')
	}
	writeRecord(c.headers)
	for _, row := range c.rows {
		writeRecord(row)
	}
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}

// String renders the document to a string.
func (c *CSV) String() string {
	var b strings.Builder
	_, _ = c.WriteTo(&b)
	return b.String()
}

func escapeCSV(s string) string {
	if !strings.ContainsAny(s, ",\"\n\r") {
		return s
	}
	return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
}
