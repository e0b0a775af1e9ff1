package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// export is one exported top-level func, type, var or const declared in a
// linted internal/ package, and whether the package's own non-test code
// refers to it from outside its declaration.
type export struct {
	relDir string
	name   string
	kind   string
	pos    token.Position
	used   bool
}

// collectExports records the package's exported top-level declarations for
// the deadcode rule, marking those its own non-test files reference. A use
// inside the declaration itself (a recursive call, a method on the type)
// does not keep a declaration alive. Methods and struct fields are out of
// scope: an interface can need a method that no caller names.
func collectExports(p *pkg) {
	if !inInternal(p.relDir) {
		return
	}
	byObj := make(map[types.Object]int) // index into p.out.exports
	add := func(id *ast.Ident, kind string) {
		obj := p.info.Defs[id]
		if !id.IsExported() || obj == nil {
			return
		}
		byObj[obj] = len(p.out.exports)
		p.out.exports = append(p.out.exports, export{relDir: p.relDir, name: id.Name, kind: kind, pos: p.fset.Position(id.Pos())})
	}
	for _, f := range p.files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					add(d.Name, "func")
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						add(s.Name, "type")
					case *ast.ValueSpec:
						for _, n := range s.Names {
							add(n, d.Tok.String())
						}
					}
				}
			}
		}
	}
	for _, f := range p.files {
		for _, decl := range f.Decls {
			owners := declOwners(p, decl)
			ast.Inspect(decl, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok {
					return true
				}
				if obj := p.info.Uses[id]; obj != nil && !owners[obj] {
					if i, ok := byObj[obj]; ok {
						p.out.exports[i].used = true
					}
				}
				return true
			})
		}
	}
}

// declOwners returns the objects a top-level declaration belongs to: the
// names it declares, or a method's receiver type.
func declOwners(p *pkg, decl ast.Decl) map[types.Object]bool {
	owners := make(map[types.Object]bool)
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if d.Recv == nil {
			owners[p.info.Defs[d.Name]] = true
			break
		}
		t := d.Recv.List[0].Type
		if star, ok := t.(*ast.StarExpr); ok {
			t = star.X
		}
		switch x := t.(type) {
		case *ast.IndexExpr:
			t = x.X
		case *ast.IndexListExpr:
			t = x.X
		}
		if id, ok := t.(*ast.Ident); ok {
			owners[p.info.Uses[id]] = true
		}
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				owners[p.info.Defs[s.Name]] = true
			case *ast.ValueSpec:
				for _, n := range s.Names {
					owners[p.info.Defs[n]] = true
				}
			}
		}
	}
	delete(owners, nil)
	return owners
}

// checkDeadcode reports the exports that no non-test file references. The
// references come from every package under Root, nested modules such as
// perfbench/ included, whatever subset of packages was linted. A Root with
// no go.mod has no import path its packages can be reached by, so the rule
// does not run there.
func (r *Runner) checkDeadcode(exports []export, diags *[]Diagnostic) error {
	if len(exports) == 0 {
		return nil
	}
	modPath, err := modulePath(r.Root)
	if err != nil || modPath == "" {
		return err
	}
	refs, err := r.moduleRefs(modPath)
	if err != nil {
		return err
	}
	for _, e := range exports {
		if e.used || refs[e.relDir+"."+e.name] || r.allowedAt(RuleDeadcode, e.pos) {
			continue
		}
		*diags = append(*diags, Diagnostic{
			Pos:  e.pos,
			Rule: RuleDeadcode,
			Msg:  "exported " + e.kind + " " + e.name + " is referenced by no non-test file in the module; delete it or //lint:allow deadcode <reason>",
		})
	}
	return nil
}

// modulePath reads the module path from Root/go.mod, or "" if there is none.
func modulePath(root string) (string, error) {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if os.IsNotExist(err) {
		return "", nil
	}
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", nil
}

// moduleRefs parses every non-test Go file under Root and returns the set of
// "relDir.Name" selectors that name a package of the module through an
// import. Like the stub importer, it takes a package's name to be the last
// element of its import path.
func (r *Runner) moduleRefs(modPath string) (map[string]bool, error) {
	refs := make(map[string]bool)
	fset := token.NewFileSet()
	err := filepath.WalkDir(r.Root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != r.Root && skippedDir(d.Name()) {
				return filepath.SkipDir
			}
			return nil
		}
		if !isLintedFile(d.Name()) {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		imported := make(map[string]string) // local name -> relDir
		for _, spec := range f.Imports {
			ipath, err := strconv.Unquote(spec.Path.Value)
			if err != nil {
				continue
			}
			rel, ok := strings.CutPrefix(ipath, modPath+"/")
			if !ok {
				continue
			}
			local := rel[strings.LastIndex(rel, "/")+1:]
			if spec.Name != nil {
				local = spec.Name.Name
			}
			imported[local] = rel
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if x, ok := sel.X.(*ast.Ident); ok && imported[x.Name] != "" {
					refs[imported[x.Name]+"."+sel.Sel.Name] = true
				}
			}
			return true
		})
		return nil
	})
	return refs, err
}
