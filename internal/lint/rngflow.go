package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// rngflow: every random draw must be reachable from a seeded constructor
// argument. Three failure shapes are flagged:
//
//   - package-level stream variables: a global stream is shared mutable
//     state whose draw order depends on goroutine interleaving and package
//     init order, which destroys replay;
//   - rng.New with a constant seed in library code: the stream is seeded,
//     but not from configuration, so two components using the same literal
//     silently correlate. Inside a loop it is worse — every iteration mints
//     an identical stream;
//   - draws on a zero-value rng.Source that was never Reseed-ed: the zero
//     stream emits the same fixed sequence in every instance.
//
// The provenance solver (dataflow.go) tracks stream-typed locals through
// assignments: parameters and struct fields count as seeded (constructors
// validate them), zero-value declarations and empty composite literals count
// as zero, Split propagates the provenance of its receiver, and Reseed
// upgrades a variable to seeded. A variable that is zero on every edge and
// never seeded flags each of its draw sites.

// drawMethods are the rng.Source methods that consume stream state.
var drawMethods = map[string]bool{
	"Uint64":   true,
	"Float64":  true,
	"Intn":     true,
	"IntRange": true,
	"Exp":      true,
	"Poisson":  true,
}

// isRngPath reports whether an import path is the project's rng package.
func isRngPath(path string) bool {
	return path == "hybridqos/internal/rng" || strings.HasSuffix(path, "/internal/rng")
}

// isRngPkgIdent reports whether the identifier names the rng package
// (usually spelled "rng", but renamed imports resolve too).
func (p *pkg) isRngPkgIdent(id *ast.Ident) bool {
	return isRngPath(p.pkgPath(id))
}

// mentionsStreamType reports whether a type expression contains rng.Source.
// The check is syntactic on purpose: with stubbed imports the rng.Source
// type never resolves through go/types, but the selector in the source text
// is unambiguous.
func (p *pkg) mentionsStreamType(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Source" {
			return true
		}
		if id, ok := sel.X.(*ast.Ident); ok && p.isRngPkgIdent(id) {
			found = true
			return false
		}
		return true
	})
	return found
}

// isRngNew reports whether call is rng.New(...) and returns its seed arg.
func (p *pkg) isRngNew(call *ast.CallExpr) (ast.Expr, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "New" {
		return nil, false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok || !p.isRngPkgIdent(id) {
		return nil, false
	}
	if len(call.Args) == 0 {
		return nil, false
	}
	return call.Args[0], true
}

func checkRngFlow(p *pkg) {
	imports := false
	for _, f := range p.files {
		for _, imp := range f.Imports {
			if isRngPath(strings.Trim(imp.Path.Value, `"`)) {
				imports = true
			}
		}
	}
	if !imports {
		return
	}
	checkPackageLevelStreams(p)
	p.eachFuncDecl(func(_ *ast.File, fd *ast.FuncDecl) {
		checkFuncRngFlow(p, fd)
	})
}

// checkPackageLevelStreams flags global stream variables, whether declared
// by type (var cached *rng.Source) or minted by initializer (= rng.New(1)).
func checkPackageLevelStreams(p *pkg) {
	for _, f := range p.files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				streamTyped := vs.Type != nil && p.mentionsStreamType(vs.Type)
				minted := false
				for _, v := range vs.Values {
					ast.Inspect(v, func(n ast.Node) bool {
						if call, ok := n.(*ast.CallExpr); ok {
							if _, isNew := p.isRngNew(call); isNew {
								minted = true
							}
						}
						return true
					})
				}
				if streamTyped || minted {
					p.report(RuleRngFlow, vs.Pos(),
						"package-level rng stream %s: streams must be minted from a configured seed and injected, never shared globally", vs.Names[0].Name)
				}
			}
		}
	}
}

// checkFuncRngFlow runs the provenance solver over one function and flags
// constant mints and zero-stream draws.
func checkFuncRngFlow(p *pkg, fd *ast.FuncDecl) {
	flow := newFuncFlow(p, fd.Body)

	// Seed states: parameters and receivers of stream type are trusted
	// (their constructors were checked where the stream was minted);
	// zero-value declarations start unseeded.
	seed := make(map[types.Object]prov)
	fields := []*ast.FieldList{fd.Recv, fd.Type.Params}
	for _, fl := range fields {
		if fl == nil {
			continue
		}
		for _, field := range fl.List {
			if !p.mentionsStreamType(field.Type) {
				continue
			}
			for _, name := range field.Names {
				if obj := p.objectOf(name); obj != nil {
					seed[obj] |= provSeeded
				}
			}
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		ds, ok := n.(*ast.DeclStmt)
		if !ok {
			return true
		}
		gd, ok := ds.Decl.(*ast.GenDecl)
		if !ok {
			return true
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok || len(vs.Values) > 0 || vs.Type == nil {
				continue
			}
			// Only the value form is silently dangerous: a nil *rng.Source
			// panics on first draw, a zero rng.Source quietly replays the
			// same fixed sequence forever.
			if _, isPtr := vs.Type.(*ast.StarExpr); isPtr || !p.mentionsStreamType(vs.Type) {
				continue
			}
			for _, name := range vs.Names {
				if obj := p.objectOf(name); obj != nil {
					seed[obj] |= provZero
				}
			}
		}
		return true
	})
	// Reseed is the sanctioned way to bless a zero stream in place.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Reseed" {
			return true
		}
		if id, ok := sel.X.(*ast.Ident); ok {
			if obj := p.objectOf(id); obj != nil {
				seed[obj] |= provSeeded
			}
		}
		return true
	})

	state := flow.solve(seed, func(e ast.Expr, st map[types.Object]prov) prov {
		return p.classifyStreamExpr(e, st)
	})

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		// Constant mints, with a sharper message inside loops.
		if seedArg, isNew := p.isRngNew(call); isNew && p.constExpr(seedArg) {
			if flow.inLoop(call.Pos()) {
				p.report(RuleRngFlow, call.Pos(),
					"rng.New(%s) inside a loop mints an identical stream every iteration; hoist it and Split per-iteration streams instead", p.exprText(seedArg))
			} else {
				p.report(RuleRngFlow, call.Pos(),
					"rng.New(%s) with a constant seed in library code: derive the stream from a configured seed (cfg.Seed, a parameter, or Split of a seeded stream)", p.exprText(seedArg))
			}
			return true
		}
		// Draws on zero-only streams.
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || !drawMethods[sel.Sel.Name] {
			return true
		}
		id, ok := sel.X.(*ast.Ident)
		if !ok {
			return true
		}
		obj := p.objectOf(id)
		if obj == nil {
			return true
		}
		if state[obj].zeroOnly() {
			p.report(RuleRngFlow, call.Pos(),
				"%s.%s draws from a zero-value rng stream: %s is never seeded on any path (Reseed it or take a seeded stream as an argument)", id.Name, sel.Sel.Name, id.Name)
		}
		return true
	})
}

// classifyStreamExpr maps an assignment RHS to stream provenance.
func (p *pkg) classifyStreamExpr(e ast.Expr, state map[types.Object]prov) prov {
	switch v := e.(type) {
	case *ast.ParenExpr:
		return p.classifyStreamExpr(v.X, state)
	case *ast.UnaryExpr:
		return p.classifyStreamExpr(v.X, state)
	case *ast.StarExpr:
		return p.classifyStreamExpr(v.X, state)
	case *ast.Ident:
		return state[p.objectOf(v)]
	case *ast.CompositeLit:
		if v.Type != nil && p.mentionsStreamType(v.Type) {
			return provZero
		}
	case *ast.CallExpr:
		if _, isNew := p.isRngNew(v); isNew {
			// Seeded for flow purposes even when the seed is a constant;
			// the constant itself is reported at the call site.
			return provSeeded
		}
		if id, ok := v.Fun.(*ast.Ident); ok && p.isBuiltin(id, "new") && len(v.Args) == 1 {
			if p.mentionsStreamType(v.Args[0]) {
				return provZero
			}
			return 0
		}
		if sel, ok := v.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Split" {
			// Split derives a child stream: it inherits the receiver's
			// provenance, so splitting a zero stream stays zero.
			if id, ok := sel.X.(*ast.Ident); ok {
				if pv := state[p.objectOf(id)]; pv != 0 {
					return pv
				}
			}
			return provSeeded
		}
	}
	return 0
}
