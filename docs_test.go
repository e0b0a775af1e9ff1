package hybridqos

import (
	"encoding/csv"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// programRef matches a program a document tells the reader to run or read:
// the package path of `go run ./<path>`, or a cmd/<name> or examples/<name>
// directory.
var programRef = regexp.MustCompile(`go run \./([\w/-]*\w)|\b((?:cmd|examples)/[\w-]+)`)

// TestDocsNameExistingPrograms fails when README.md, DESIGN.md or
// EXPERIMENTS.md names a program directory that does not exist. ROADMAP.md
// and CHANGES.md are history and may name removed programs.
func TestDocsNameExistingPrograms(t *testing.T) {
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range programRef.FindAllSubmatch(text, -1) {
			dir := string(m[1]) + string(m[2])
			if fi, err := os.Stat(dir); err != nil || !fi.IsDir() {
				t.Errorf("%s names %s, which is not a directory", doc, dir)
			}
		}
	}
}

// quotedTable says which results/*.csv cells one figure table of
// EXPERIMENTS.md quotes.
type quotedTable struct {
	csv string
	// cell maps a table cell's row label and column header to the CSV
	// series whose value at x the cell prints; with several series the
	// cell prints their sum. No series means the row label is malformed.
	cell func(row, col string) (series []string, x string)
}

// quotedTables holds a quotedTable for each figure section (## FIG… or
// ## EXT-…) of EXPERIMENTS.md that has a table, keyed by the section's id.
var quotedTables = map[string]quotedTable{
	// The θ = 0.60 column of each class.
	"FIG3": {"fig3.csv", func(row, col string) ([]string, string) { return []string{col + " θ=0.60"}, row }},
	// Costs at α = 0.25; total is the sum of the three classes.
	"FIG5": {"fig5.csv", func(row, col string) ([]string, string) {
		if col == "total" {
			return []string{"Class-A α=0.25", "Class-B α=0.25", "Class-C α=0.25"}, row
		}
		return []string{"Class-" + strings.TrimSuffix(col, "-cost") + " α=0.25"}, row
	}},
	"FIG6": {"fig6.csv", func(row, col string) ([]string, string) { return []string{col}, row }},
	"FIG7": {"fig7.csv", func(row, col string) ([]string, string) { return []string{"Class-" + col}, row }},
	"EXT-BLOCK": {"ext-block.csv", func(row, col string) ([]string, string) {
		return []string{"Class-" + strings.TrimSuffix(col, " drops")}, row
	}},
	"EXT-MULTI": {"ext-multi.csv", func(row, col string) ([]string, string) { return []string{"Class-" + col}, row }},
	// Rows are "push / pull" channel counts out of 4; the CSV keys on push.
	"EXT-CHAN": {"ext-chan.csv", func(row, col string) ([]string, string) {
		push, pull, _ := strings.Cut(row, " / ")
		p, err1 := strconv.Atoi(push)
		q, err2 := strconv.Atoi(pull)
		if err1 != nil || err2 != nil || p+q != 4 {
			return nil, ""
		}
		return []string{col}, push
	}},
	"EXT-LOAD": {"ext-load.csv", func(row, col string) ([]string, string) { return []string{col}, row }},
	"EXT-FAULTS": {"ext-faults.csv", func(row, col string) ([]string, string) {
		class, what, _ := strings.Cut(col, " ")
		what = map[string]string{"fail (γ+shed)": "failure (γ+shed)", "fail (flat)": "failure (flat)", "delay": "delay (γ+shed)"}[what]
		return []string{"Class-" + class + " " + what}, row
	}},
	// Rows are classes, keyed 1 = A, 2 = B, 3 = C; columns are policies.
	"EXT-POLICY": {"ext-policy.csv", func(row, col string) ([]string, string) {
		series := col
		if !strings.HasPrefix(col, "push=") {
			series = "pull=" + strings.ToLower(col)
			if col == "γ(0.5)" {
				series = "pull=gamma"
			}
		}
		return []string{series}, strconv.Itoa(int(row[0]-'A') + 1)
	}},
}

// figureSection matches the heading of a figure section and captures its id.
var figureSection = regexp.MustCompile(`^## ((?:FIG|EXT-)[\w-]+)`)

// resultCells reads every results/*.csv file a quotedTable names, keyed by
// file, then series and x (formatted by strconv 'g').
func resultCells(t *testing.T) map[string]map[string]float64 {
	t.Helper()
	cells := map[string]map[string]float64{}
	for _, q := range quotedTables {
		f, err := os.Open(filepath.Join("results", q.csv))
		if err != nil {
			t.Fatal(err)
		}
		rows, err := csv.NewReader(f).ReadAll()
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", q.csv, err)
		}
		m := map[string]float64{}
		for _, r := range rows[1:] {
			x, err1 := strconv.ParseFloat(r[2], 64)
			v, err2 := strconv.ParseFloat(r[3], 64)
			if err1 != nil || err2 != nil {
				t.Fatalf("%s: row %q is not numeric", q.csv, r)
			}
			m[cellKey(r[1], x)] = v
		}
		cells[q.csv] = m
	}
	return cells
}

func cellKey(series string, x float64) string {
	return series + "\x00" + strconv.FormatFloat(x, 'g', -1, 64)
}

// tableCells splits a markdown table row into its trimmed cells, bold
// markers dropped.
func tableCells(line string) []string {
	cells := strings.Split(strings.Trim(strings.TrimSpace(line), "|"), "|")
	for i, c := range cells {
		cells[i] = strings.TrimSpace(strings.ReplaceAll(c, "**", ""))
	}
	return cells
}

// checkFigureTables returns one message for each number in a figure table
// of doc that differs, at its printed precision, from the results cell it
// quotes, for each cell it cannot place in the CSV, and for each figure
// table or quotedTables entry without the other.
func checkFigureTables(doc string, cells map[string]map[string]float64) []string {
	var errs []string
	seen := map[string]bool{}
	id := ""
	var header []string
	for _, line := range strings.Split(doc, "\n") {
		if strings.HasPrefix(line, "## ") {
			id, header = "", nil
			if m := figureSection.FindStringSubmatch(line); m != nil {
				id = m[1]
			}
			continue
		}
		if id == "" || !strings.HasPrefix(line, "|") {
			if header != nil {
				id = "" // only a section's first table is a figure table
			}
			continue
		}
		q, ok := quotedTables[id]
		if !ok {
			errs = append(errs, fmt.Sprintf("%s: table quotes no results file; add it to quotedTables", id))
			id = ""
			continue
		}
		seen[id] = true
		row := tableCells(line)
		switch {
		case header == nil:
			header = row
			continue
		case strings.HasPrefix(row[0], "-"):
			continue
		case len(row) != len(header):
			errs = append(errs, fmt.Sprintf("%s: row %q has %d cells, header %d", id, row[0], len(row), len(header)))
			continue
		}
		for i := 1; i < len(row); i++ {
			series, x := q.cell(row[0], header[i])
			xv, err := strconv.ParseFloat(x, 64)
			if len(series) == 0 || err != nil {
				errs = append(errs, fmt.Sprintf("%s: row %q is no x of %s", id, row[0], q.csv))
				continue
			}
			sum := 0.0
			for _, s := range series {
				v, ok := cells[q.csv][cellKey(s, xv)]
				if !ok {
					errs = append(errs, fmt.Sprintf("%s: %s has no %q at %s (row %q, column %q)", id, q.csv, s, x, row[0], header[i]))
				}
				sum += v
			}
			printed := row[i]
			decimals := 0
			if dot := strings.IndexByte(printed, '.'); dot >= 0 {
				decimals = len(printed) - dot - 1
			}
			if want := strconv.FormatFloat(sum, 'f', decimals, 64); printed != want {
				errs = append(errs, fmt.Sprintf("%s: row %q, column %q prints %s; %s has %s", id, row[0], header[i], printed, q.csv, want))
			}
		}
	}
	for id := range quotedTables {
		if !seen[id] {
			errs = append(errs, fmt.Sprintf("%s: no figure table found", id))
		}
	}
	return errs
}

// TestExperimentsTablesQuoteResults: every number in EXPERIMENTS.md's
// figure tables equals, at its printed precision, the results/*.csv cell
// it quotes (quotedTables names each table's file and cells).
func TestExperimentsTablesQuoteResults(t *testing.T) {
	doc, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range checkFigureTables(string(doc), resultCells(t)) {
		t.Error(e)
	}
}

// TestExperimentsTablesCatchEdits: changing any one digit of a figure
// table, labels and headers included, makes checkFigureTables report it.
func TestExperimentsTablesCatchEdits(t *testing.T) {
	text, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(text)
	cells := resultCells(t)
	if errs := checkFigureTables(doc, cells); len(errs) > 0 {
		t.Skip("EXPERIMENTS.md does not match results/ yet")
	}
	inTable := false
	id := ""
	edits := 0
	for i := 0; i < len(doc); i++ {
		lineStart := i == 0 || doc[i-1] == '\n'
		if lineStart {
			if m := figureSection.FindStringSubmatch(doc[i:min(len(doc), i+40)]); m != nil {
				id = m[1]
			} else if strings.HasPrefix(doc[i:], "## ") {
				id = ""
			}
			inTable = id != "" && doc[i] == '|'
		}
		if !inTable || doc[i] < '0' || doc[i] > '9' {
			continue
		}
		edits++
		edited := doc[:i] + string('0'+(doc[i]-'0'+1)%10) + doc[i+1:]
		if len(checkFigureTables(edited, cells)) == 0 {
			end := strings.IndexByte(doc[i:], '\n')
			start := strings.LastIndexByte(doc[:i], '\n') + 1
			t.Errorf("%s: editing digit %q in %q goes unnoticed", id, doc[i], doc[start:i+end])
		}
	}
	if edits == 0 {
		t.Fatal("found no digit in a figure table")
	}
	t.Logf("%d one-digit edits, each reported", edits)
}
