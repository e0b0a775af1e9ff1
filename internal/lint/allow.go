package lint

import (
	"go/token"
	"strings"
)

// allowKey addresses an allow comment: one file, one line, one rule.
type allowKey struct {
	file string
	line int
	rule string
}

type allowEntry struct {
	reason string
}

// collectAllows parses every //lint:allow comment in the package and records
// which (file, line, rule) triples are waived. Malformed allows — unknown
// rule name, or a missing reason — are diagnostics themselves, so a typo
// cannot silently disable a rule. Waivers are kept package-local during the
// parallel run (rules only ever consult same-package allows) and exported
// through p.out for the post-merge cross-package registrydoc pass.
func (p *pkg) collectAllows() {
	for _, f := range p.files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//lint:allow")
				if !ok {
					continue
				}
				pos := p.fset.Position(c.Pos())
				fields := strings.Fields(text)
				if len(fields) == 0 {
					p.out.diags = append(p.out.diags, Diagnostic{
						Pos:  pos,
						Rule: RuleAllow,
						Msg:  "malformed allow comment: want //lint:allow <rule> <reason>",
					})
					continue
				}
				rule := fields[0]
				if !knownRules[rule] {
					p.out.diags = append(p.out.diags, Diagnostic{
						Pos:  pos,
						Rule: RuleAllow,
						Msg:  "allow names unknown rule " + quote(rule) + " (known: " + strings.Join(ruleNames(), ", ") + ")",
					})
					continue
				}
				if len(fields) < 2 {
					p.out.diags = append(p.out.diags, Diagnostic{
						Pos:  pos,
						Rule: RuleAllow,
						Msg:  "allow for " + quote(rule) + " needs a reason: //lint:allow " + rule + " <reason>",
					})
					continue
				}
				key := allowKey{file: pos.Filename, line: pos.Line, rule: rule}
				entry := allowEntry{reason: strings.Join(fields[1:], " ")}
				p.allows[key] = entry
				p.out.allows = append(p.out.allows, allowRecord{key: key, entry: entry})
			}
		}
	}
}

// allowed reports whether a finding at position is waived: an allow for the
// same rule sits on the finding's line (trailing comment) or the line
// directly above it (own-line comment).
func (p *pkg) allowed(rule string, pos token.Position) bool {
	if _, ok := p.allows[allowKey{file: pos.Filename, line: pos.Line, rule: rule}]; ok {
		return true
	}
	_, ok := p.allows[allowKey{file: pos.Filename, line: pos.Line - 1, rule: rule}]
	return ok
}

func (r *Runner) allowedAt(rule string, pos token.Position) bool {
	if _, ok := r.allows[allowKey{file: pos.Filename, line: pos.Line, rule: rule}]; ok {
		return true
	}
	_, ok := r.allows[allowKey{file: pos.Filename, line: pos.Line - 1, rule: rule}]
	return ok
}

func ruleNames() []string {
	return []string{
		RuleNondeterminism, RuleMapOrder, RulePanicMsg, RuleFloatCmp,
		RuleRegistryDoc, RuleRngFlow, RuleHotAlloc, RuleGoroutines,
		RuleBarrierSafe, RuleDeadcode,
	}
}

func quote(s string) string { return "\"" + s + "\"" }
