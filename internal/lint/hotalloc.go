package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// hotalloc: functions annotated //qos:hotpath may not contain allocating
// constructs. This is the static complement of TestAllocsPerRequestCeiling
// and the CI benchmark A/B — those catch a regression after the fact, this
// rule points at the exact expression in review.
//
// Flagged constructs:
//
//   - append whose base is not a reslice (append(x[:0], ...) reuses
//     capacity; append(x, ...) may grow);
//   - make with a non-constant size (make([]T, 8) is a candidate for stack
//     allocation, make([]T, n) rarely is);
//   - closure literals that capture variables (a capturing closure allocates
//     its context; a capture-free literal compiles to a static func value);
//   - explicit conversions to an interface type, including any(x) (boxing);
//   - string concatenation outside constant folding.
//
// The rule is opt-in per function and applies in any scope. Intentional
// sites — amortized growth, freelist pushes — carry //lint:allow hotalloc
// waivers with the justification inline.

func checkHotAlloc(p *pkg) {
	if len(p.ann.hotpath) == 0 {
		return
	}
	p.eachFuncDecl(func(_ *ast.File, fd *ast.FuncDecl) {
		if !p.ann.hotpath[fd] {
			return
		}
		checkFuncHotAlloc(p, fd)
	})
}

func checkFuncHotAlloc(p *pkg, fd *ast.FuncDecl) {
	name := fd.Name.Name
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.CallExpr:
			p.checkHotCall(name, v)
		case *ast.FuncLit:
			if captured := p.capturedVars(fd, v); len(captured) > 0 {
				p.report(RuleHotAlloc, v.Pos(),
					"closure in //qos:hotpath func %s captures %s: a capturing closure allocates per call (hoist the closure to a reused field, or waive with the amortization argument)", name, joinNames(captured))
			}
		case *ast.BinaryExpr:
			if v.Op == token.ADD && (p.isStringExpr(v.X) || p.isStringExpr(v.Y)) && !p.constExpr(v) {
				p.report(RuleHotAlloc, v.OpPos,
					"string concatenation in //qos:hotpath func %s allocates; precompute or use a byte buffer", name)
			}
		case *ast.AssignStmt:
			if v.Tok == token.ADD_ASSIGN && len(v.Lhs) == 1 && p.isStringExpr(v.Lhs[0]) {
				p.report(RuleHotAlloc, v.TokPos,
					"string += in //qos:hotpath func %s allocates; precompute or use a byte buffer", name)
			}
		}
		return true
	})
}

func (p *pkg) checkHotCall(fn string, call *ast.CallExpr) {
	if id, ok := call.Fun.(*ast.Ident); ok {
		switch {
		case p.isBuiltin(id, "append") && len(call.Args) > 0:
			// append over a reslice (append(buf[:0], ...)) reuses capacity
			// and is the sanctioned hot-path idiom; anything else may grow.
			if _, reslice := call.Args[0].(*ast.SliceExpr); !reslice {
				p.report(RuleHotAlloc, call.Pos(),
					"append may grow %s in //qos:hotpath func %s; reuse capacity (append(x[:0], ...)) or waive with the amortization argument", p.exprText(call.Args[0]), fn)
			}
			return
		case p.isBuiltin(id, "make") && len(call.Args) >= 2:
			for _, arg := range call.Args[1:] {
				if !p.constExpr(arg) {
					p.report(RuleHotAlloc, call.Pos(),
						"make with non-constant size %s in //qos:hotpath func %s allocates per call; preallocate in the constructor", p.exprText(arg), fn)
					return
				}
			}
			return
		}
	}
	// Explicit conversion to an interface type (including any(x)): boxing.
	if tv, ok := p.info.Types[call.Fun]; ok && tv.IsType() && tv.Type != nil {
		if _, iface := tv.Type.Underlying().(*types.Interface); iface && len(call.Args) == 1 {
			p.report(RuleHotAlloc, call.Pos(),
				"conversion to interface type %s in //qos:hotpath func %s boxes its operand", p.exprText(call.Fun), fn)
		}
	}
}

// capturedVars returns the sorted names of variables a closure literal
// captures from its enclosing function: objects used inside the literal but
// declared between the function's start and the literal (receiver, params,
// locals). Package-level objects are not captures — referencing a global
// does not allocate a closure context.
func (p *pkg) capturedVars(fd *ast.FuncDecl, lit *ast.FuncLit) []string {
	seen := make(map[string]bool)
	var names []string
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := p.info.Uses[id]
		v, isVar := obj.(*types.Var)
		if !isVar || v.IsField() {
			return true
		}
		pos := obj.Pos()
		if pos >= fd.Pos() && pos < lit.Pos() && !seen[id.Name] {
			seen[id.Name] = true
			names = append(names, id.Name)
		}
		return true
	})
	sort.Strings(names)
	return names
}

// isStringExpr reports whether the type-checker resolved e to a string.
func (p *pkg) isStringExpr(e ast.Expr) bool {
	tv, ok := p.info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	basic, ok := tv.Type.Underlying().(*types.Basic)
	return ok && basic.Info()&types.IsString != 0
}

func joinNames(names []string) string {
	return strings.Join(names, ", ")
}
