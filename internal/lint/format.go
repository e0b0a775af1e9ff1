package lint

import (
	"encoding/json"
	"io"
	"path/filepath"
	"strings"
)

// Output emitters for cmd/qoslint's -format flag. Both emitters take the
// already-sorted diagnostic slice, so every format shares the same
// (file, line, column, rule) order and CI annotations are stable across
// runs and worker counts.

// ruleDescriptions are the one-line docs surfaced in SARIF rule metadata
// (GitHub code scanning shows them next to each annotation).
var ruleDescriptions = map[string]string{
	RuleNondeterminism: "time.Now/time.Since and math/rand are banned in library code; randomness flows through internal/rng",
	RuleMapOrder:       "map iteration order leaks into output unless keys are collected and sorted",
	RulePanicMsg:       "library panics must carry a \"<pkg>: \" prefixed message or a typed error",
	RuleFloatCmp:       "float ==/!= in scheduling code hides tie-break behaviour",
	RuleRegistryDoc:    "registered policy names must be documented in README.md or DESIGN.md",
	RuleRngFlow:        "random draws must be reachable from a seeded constructor argument",
	RuleHotAlloc:       "//qos:hotpath functions may not contain allocating constructs",
	RuleGoroutines:     "goroutines are confined to workpool/clock/httpserve; mutex lock/unlock must balance",
	RuleBarrierSafe:    "//qos:sharded state is only touched inside //qos:barrier functions",
	RuleDeadcode:       "exported internal/ declarations are referenced by non-test code",
	RuleAllow:          "malformed //lint:allow or //qos: comments",
}

// jsonFinding is one diagnostic in -format json output.
type jsonFinding struct {
	File   string `json:"file"`
	Line   int    `json:"line"`
	Column int    `json:"column"`
	Rule   string `json:"rule"`
	Msg    string `json:"msg"`
}

// WriteJSON emits the diagnostics as a JSON array of findings with
// root-relative file paths.
func WriteJSON(w io.Writer, root string, diags []Diagnostic) error {
	findings := make([]jsonFinding, 0, len(diags))
	for _, d := range diags {
		findings = append(findings, jsonFinding{
			File:   relPath(root, d.Pos.Filename),
			Line:   d.Pos.Line,
			Column: d.Pos.Column,
			Rule:   d.Rule,
			Msg:    d.Msg,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(findings)
}

// SARIF 2.1.0 scaffolding — the minimal subset GitHub code scanning
// consumes: tool metadata with rule descriptors, and one result per
// diagnostic with a physical location.

type sarifLog struct {
	Schema  string     `json:"$schema"`
	Version string     `json:"version"`
	Runs    []sarifRun `json:"runs"`
}

type sarifRun struct {
	Tool    sarifTool     `json:"tool"`
	Results []sarifResult `json:"results"`
}

type sarifTool struct {
	Driver sarifDriver `json:"driver"`
}

type sarifDriver struct {
	Name           string      `json:"name"`
	InformationURI string      `json:"informationUri,omitempty"`
	Rules          []sarifRule `json:"rules"`
}

type sarifRule struct {
	ID               string       `json:"id"`
	ShortDescription sarifMessage `json:"shortDescription"`
}

type sarifMessage struct {
	Text string `json:"text"`
}

type sarifResult struct {
	RuleID    string          `json:"ruleId"`
	RuleIndex int             `json:"ruleIndex"`
	Level     string          `json:"level"`
	Message   sarifMessage    `json:"message"`
	Locations []sarifLocation `json:"locations"`
}

type sarifLocation struct {
	PhysicalLocation sarifPhysicalLocation `json:"physicalLocation"`
}

type sarifPhysicalLocation struct {
	ArtifactLocation sarifArtifactLocation `json:"artifactLocation"`
	Region           sarifRegion           `json:"region"`
}

type sarifArtifactLocation struct {
	URI       string `json:"uri"`
	URIBaseID string `json:"uriBaseId,omitempty"`
}

type sarifRegion struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn,omitempty"`
}

// WriteSARIF emits the diagnostics as a SARIF 2.1.0 log suitable for GitHub
// code-scanning upload. Rules are listed in documentation order (plus the
// allow meta-rule), results reference them by index, and file URIs are
// root-relative with forward slashes.
func WriteSARIF(w io.Writer, root string, diags []Diagnostic) error {
	ids := append(ruleNames(), RuleAllow)
	index := make(map[string]int, len(ids))
	rules := make([]sarifRule, 0, len(ids))
	for i, id := range ids {
		index[id] = i
		rules = append(rules, sarifRule{
			ID:               id,
			ShortDescription: sarifMessage{Text: ruleDescriptions[id]},
		})
	}
	results := make([]sarifResult, 0, len(diags))
	for _, d := range diags {
		results = append(results, sarifResult{
			RuleID:    d.Rule,
			RuleIndex: index[d.Rule],
			Level:     "error",
			Message:   sarifMessage{Text: d.Msg},
			Locations: []sarifLocation{{
				PhysicalLocation: sarifPhysicalLocation{
					ArtifactLocation: sarifArtifactLocation{
						URI:       relPath(root, d.Pos.Filename),
						URIBaseID: "%SRCROOT%",
					},
					Region: sarifRegion{
						StartLine:   d.Pos.Line,
						StartColumn: d.Pos.Column,
					},
				},
			}},
		})
	}
	log := sarifLog{
		Schema:  "https://json.schemastore.org/sarif-2.1.0.json",
		Version: "2.1.0",
		Runs: []sarifRun{{
			Tool:    sarifTool{Driver: sarifDriver{Name: "qoslint", Rules: rules}},
			Results: results,
		}},
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(log)
}

// relPath renders filename relative to root with forward slashes, falling
// back to the input when it is not under root.
func relPath(root, filename string) string {
	if root != "" {
		if rel, err := filepath.Rel(root, filename); err == nil && !strings.HasPrefix(rel, "..") {
			return filepath.ToSlash(rel)
		}
	}
	return filepath.ToSlash(filename)
}
