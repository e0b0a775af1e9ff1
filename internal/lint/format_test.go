package lint

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"
)

// TestWriteJSON: the JSON emitter preserves the sorted order and renders
// root-relative slash paths.
func TestWriteJSON(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	diags, _ := fixtureRun(t, "./...")
	var buf bytes.Buffer
	if err := WriteJSON(&buf, root, diags); err != nil {
		t.Fatal(err)
	}
	var findings []struct {
		File   string `json:"file"`
		Line   int    `json:"line"`
		Column int    `json:"column"`
		Rule   string `json:"rule"`
		Msg    string `json:"msg"`
	}
	if err := json.Unmarshal(buf.Bytes(), &findings); err != nil {
		t.Fatalf("emitted JSON does not parse: %v", err)
	}
	if len(findings) != len(diags) {
		t.Fatalf("got %d JSON findings, want %d", len(findings), len(diags))
	}
	for i, f := range findings {
		if strings.Contains(f.File, "\\") || filepath.IsAbs(f.File) {
			t.Errorf("finding %d file %q is not a root-relative slash path", i, f.File)
		}
		if f.Rule == "" || f.Msg == "" || f.Line == 0 {
			t.Errorf("finding %d is incomplete: %+v", i, f)
		}
		if f.Rule != diags[i].Rule || f.Line != diags[i].Pos.Line {
			t.Errorf("finding %d out of order: got %s:%d, want %s:%d", i, f.Rule, f.Line, diags[i].Rule, diags[i].Pos.Line)
		}
	}
}

// TestWriteSARIF: the SARIF emitter produces a parseable 2.1.0 log with the
// full rule table, index-consistent results, and physical locations.
func TestWriteSARIF(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	diags, _ := fixtureRun(t, "./...")
	var buf bytes.Buffer
	if err := WriteSARIF(&buf, root, diags); err != nil {
		t.Fatal(err)
	}
	var log struct {
		Schema  string `json:"$schema"`
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name  string `json:"name"`
					Rules []struct {
						ID               string `json:"id"`
						ShortDescription struct {
							Text string `json:"text"`
						} `json:"shortDescription"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID    string `json:"ruleId"`
				RuleIndex int    `json:"ruleIndex"`
				Level     string `json:"level"`
				Message   struct {
					Text string `json:"text"`
				} `json:"message"`
				Locations []struct {
					PhysicalLocation struct {
						ArtifactLocation struct {
							URI string `json:"uri"`
						} `json:"artifactLocation"`
						Region struct {
							StartLine int `json:"startLine"`
						} `json:"region"`
					} `json:"physicalLocation"`
				} `json:"locations"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(buf.Bytes(), &log); err != nil {
		t.Fatalf("emitted SARIF does not parse: %v", err)
	}
	if log.Version != "2.1.0" || !strings.Contains(log.Schema, "sarif-2.1.0") {
		t.Errorf("not a SARIF 2.1.0 log: version=%q schema=%q", log.Version, log.Schema)
	}
	if len(log.Runs) != 1 {
		t.Fatalf("got %d runs, want 1", len(log.Runs))
	}
	run := log.Runs[0]
	if run.Tool.Driver.Name != "qoslint" {
		t.Errorf("driver name = %q, want qoslint", run.Tool.Driver.Name)
	}
	// All ten documented rules plus the allow meta-rule, each described.
	if len(run.Tool.Driver.Rules) != 11 {
		t.Errorf("got %d rules in driver metadata, want 11", len(run.Tool.Driver.Rules))
	}
	for _, r := range run.Tool.Driver.Rules {
		if r.ShortDescription.Text == "" {
			t.Errorf("rule %s has no short description", r.ID)
		}
	}
	if len(run.Results) != len(diags) {
		t.Fatalf("got %d results, want %d", len(run.Results), len(diags))
	}
	for i, res := range run.Results {
		if res.Level != "error" {
			t.Errorf("result %d level = %q, want error", i, res.Level)
		}
		if res.RuleID != diags[i].Rule {
			t.Errorf("result %d ruleId = %q, want %q", i, res.RuleID, diags[i].Rule)
		}
		if got := run.Tool.Driver.Rules[res.RuleIndex].ID; got != res.RuleID {
			t.Errorf("result %d ruleIndex %d points at %q, want %q", i, res.RuleIndex, got, res.RuleID)
		}
		if len(res.Locations) != 1 {
			t.Fatalf("result %d has %d locations, want 1", i, len(res.Locations))
		}
		loc := res.Locations[0].PhysicalLocation
		if loc.Region.StartLine != diags[i].Pos.Line {
			t.Errorf("result %d startLine = %d, want %d", i, loc.Region.StartLine, diags[i].Pos.Line)
		}
		if strings.Contains(loc.ArtifactLocation.URI, "\\") || filepath.IsAbs(loc.ArtifactLocation.URI) {
			t.Errorf("result %d uri %q is not a root-relative slash path", i, loc.ArtifactLocation.URI)
		}
	}
}

// TestSARIFEmptyRun: a clean tree still emits a valid log (CI uploads it
// unconditionally), with the rule table present and zero results.
func TestSARIFEmptyRun(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSARIF(&buf, "", nil); err != nil {
		t.Fatal(err)
	}
	var log map[string]any
	if err := json.Unmarshal(buf.Bytes(), &log); err != nil {
		t.Fatalf("empty SARIF does not parse: %v", err)
	}
	if !strings.Contains(buf.String(), `"results": []`) {
		t.Errorf("empty run should carry an explicit empty results array:\n%s", buf.String())
	}
}
