package report

import (
	"strings"
	"testing"
)

// FuzzCSVEscapeRoundTrip: any cell content must survive the CSV encoding
// in a form a conforming parser can recover — we check structural safety:
// the record count never changes regardless of embedded delimiters.
func FuzzCSVEscapeRoundTrip(f *testing.F) {
	f.Add("plain")
	f.Add("with,comma")
	f.Add(`with"quote`)
	f.Add("with\nnewline")
	f.Add("with\r\nCRLF")
	f.Add(`",",","`)
	f.Fuzz(func(t *testing.T, cell string) {
		c := NewCSV("a", "b")
		c.AddRow(cell, "x")
		out := c.String()
		// A conforming reader counts records by unquoted newlines; verify
		// by a tiny state machine: exactly 2 records (header + row).
		records := countCSVRecords(out)
		if records != 2 {
			t.Fatalf("cell %q produced %d records", cell, records)
		}
	})
}

// countCSVRecords counts records honouring RFC-4180 quoting.
func countCSVRecords(s string) int {
	inQuotes := false
	records := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '"':
			if inQuotes && i+1 < len(s) && s[i+1] == '"' {
				i++ // escaped quote
				continue
			}
			inQuotes = !inQuotes
		case '\n':
			if !inQuotes {
				records++
			}
		}
	}
	return records
}

// FuzzTableNeverPanics: arbitrary cell content must render without panics
// and preserve row counts.
func FuzzTableNeverPanics(f *testing.F) {
	f.Add("x", "y")
	f.Add("", "")
	f.Add(strings.Repeat("w", 500), "\t\t")
	f.Fuzz(func(t *testing.T, a, b string) {
		tbl := NewTable("T", "col1", "col2")
		tbl.AddRow(a, b)
		out := tbl.String()
		if out == "" {
			t.Fatal("empty render")
		}
		if len(tbl.rows) != 1 {
			t.Fatalf("rows = %d", len(tbl.rows))
		}
	})
}
