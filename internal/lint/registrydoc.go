package lint

import (
	"go/ast"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
)

// registration records one policy name registered somewhere in the tree.
type registration struct {
	name string
	pos  token.Pos
	fset *token.FileSet
}

// checkRegistryCalls collects the string-literal names passed to the policy
// registries — policy.RegisterPull / policy.RegisterPush from outside, and
// Registry.MustRegister, which installs the built-in pull, push and routing
// policies.
// The registrydoc rule then requires each name to appear in the user-facing
// docs: an undocumented policy is unusable (nobody can know to pass it to
// -policy/-push/-routing) and undiscoverable in review.
func checkRegistryCalls(p *pkg) {
	for _, f := range p.files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			var fname string
			switch fn := call.Fun.(type) {
			case *ast.Ident:
				fname = fn.Name
			case *ast.SelectorExpr:
				fname = fn.Sel.Name
			default:
				return true
			}
			switch fname {
			case "RegisterPull", "RegisterPush", "MustRegister":
			default:
				return true
			}
			lit, ok := call.Args[0].(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				return true
			}
			name, err := strconv.Unquote(lit.Value)
			if err != nil || name == "" {
				return true
			}
			p.out.regs = append(p.out.regs, registration{name: name, pos: lit.Pos(), fset: p.fset})
			return true
		})
	}
}

// checkRegistryDoc resolves the collected registrations against the doc
// files once all packages are linted, honouring //lint:allow waivers at the
// registration site like every other rule.
func (r *Runner) checkRegistryDoc(regs []registration, diags *[]Diagnostic) error {
	if len(regs) == 0 {
		return nil
	}
	docFiles := r.DocFiles
	if len(docFiles) == 0 {
		docFiles = []string{"README.md", "DESIGN.md"}
	}
	var docs []string
	var present []string
	for _, df := range docFiles {
		b, err := os.ReadFile(filepath.Join(r.Root, df))
		if err != nil {
			if os.IsNotExist(err) {
				continue
			}
			return err
		}
		docs = append(docs, string(b))
		present = append(present, df)
	}
	all := strings.Join(docs, "\n")
	for _, reg := range regs {
		// Word-bounded match so "none" is not satisfied by "nonetheless";
		// hyphens inside a name ("square-root") are part of the word.
		pat := regexp.MustCompile(`(^|[^A-Za-z0-9_-])` + regexp.QuoteMeta(reg.name) + `($|[^A-Za-z0-9_-])`)
		pos := reg.fset.Position(reg.pos)
		if !pat.MatchString(all) && !r.allowedAt(RuleRegistryDoc, pos) {
			*diags = append(*diags, Diagnostic{
				Pos:  pos,
				Rule: RuleRegistryDoc,
				Msg:  "registered policy name " + strconv.Quote(reg.name) + " is not documented in " + strings.Join(present, " or "),
			})
		}
	}
	return nil
}
