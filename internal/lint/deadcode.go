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

// export is one exported declaration of a linted internal/ package: a
// top-level func, type, var or const, a method, or a struct field. For a
// top-level declaration, used records whether the package's own non-test
// code refers to it from outside its declaration. owner is the receiver or
// struct type a method or field belongs to.
type export struct {
	relDir string
	owner  string
	name   string
	kind   string
	pos    token.Position
	used   bool
}

// stdlibMethods are the method names the module relies on through a
// standard-library interface: the runtime, fmt, errors, encoding/json,
// encoding and go/types call them through a conversion or reflection, so
// no selector in the module names them.
var stdlibMethods = map[string]bool{
	"Error":         true, // error
	"String":        true, // fmt.Stringer
	"Unwrap":        true, // errors.Is/As
	"MarshalJSON":   true, // json.Marshaler
	"UnmarshalJSON": true, // json.Unmarshaler
	"MarshalText":   true, // encoding.TextMarshaler
	"UnmarshalText": true, // encoding.TextUnmarshaler
	"Import":        true, // types.Importer
}

// collectExports records the package's exported declarations for the
// deadcode rule, marking the top-level ones its own non-test files
// reference. A use inside the declaration itself (a recursive call, a method
// on the type) does not keep a declaration alive. Methods and fields are
// judged later, by name, against the whole module (checkDeadcode).
func collectExports(p *pkg) {
	if !inInternal(p.relDir) {
		return
	}
	byObj := make(map[types.Object]int) // index into p.out.exports
	add := func(id *ast.Ident, owner, kind string) {
		if !id.IsExported() {
			return
		}
		if owner == "" {
			obj := p.info.Defs[id]
			if obj == nil {
				return
			}
			byObj[obj] = len(p.out.exports)
		}
		p.out.exports = append(p.out.exports, export{relDir: p.relDir, owner: owner, name: id.Name, kind: kind, pos: p.fset.Position(id.Pos())})
	}
	for _, f := range p.files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					add(d.Name, "", "func")
				} else if recv := recvIdent(d); recv != nil {
					add(d.Name, recv.Name, "method")
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						add(s.Name, "", "type")
						if st, ok := s.Type.(*ast.StructType); ok {
							for _, field := range st.Fields.List {
								if field.Tag != nil && strings.Contains(field.Tag.Value, "json:") {
									continue
								}
								for _, n := range field.Names {
									add(n, s.Name.Name, "field")
								}
							}
						}
					case *ast.ValueSpec:
						for _, n := range s.Names {
							add(n, "", d.Tok.String())
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

// recvIdent returns the name of a method's receiver type, generic
// parameters and pointer stripped, or nil if it is not a plain name.
func recvIdent(d *ast.FuncDecl) *ast.Ident {
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
	id, _ := t.(*ast.Ident)
	return id
}

// declOwners returns the objects a top-level declaration belongs to: the
// names it declares, or a method's receiver type.
func declOwners(p *pkg, decl ast.Decl) map[types.Object]bool {
	owners := make(map[types.Object]bool)
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if d.Recv == nil {
			owners[p.info.Defs[d.Name]] = true
		} else if id := recvIdent(d); id != nil {
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

// checkDeadcode reports the exports that no non-test file of the module
// keeps alive. The uses come from every package under Root, nested modules
// such as perfbench/ included, whatever subset of packages was linted. A
// top-level declaration is live if a selector through a module import names
// it. Methods and fields are matched by name, since the stub importer cannot
// resolve a receiver from another package: a method is live if a selector
// outside its own receiver type's methods names it, an interface declares
// it, or it is in stdlibMethods; a field is live if a selector reads it,
// that is names it other than as the target of an assignment or ++/--.
// Matching by name can miss dead code that shares a live name. It can also
// report live code: a method reached only through a stdlib interface missing
// from stdlibMethods, or a field read only through reflection (fmt's %v,
// reflect.DeepEqual, untagged encoding/json); such code takes a waiver. A
// Root with no go.mod has no import path its packages can be reached by, so the
// rule does not run there.
func (r *Runner) checkDeadcode(exports []export, diags *[]Diagnostic) error {
	if len(exports) == 0 {
		return nil
	}
	modPath, err := modulePath(r.Root)
	if err != nil || modPath == "" {
		return err
	}
	uses, err := r.moduleUses(modPath)
	if err != nil {
		return err
	}
	for _, e := range exports {
		var live bool
		name := e.name
		switch e.kind {
		case "method":
			owners := uses.reads[e.name]
			selfOnly := len(owners) == 1 && owners[e.relDir+"."+e.owner]
			live = len(owners) > 0 && !selfOnly || uses.interfaces[e.name] || stdlibMethods[e.name]
			name = e.owner + "." + e.name
		case "field":
			live = len(uses.reads[e.name]) > 0
			name = e.owner + "." + e.name
		default:
			live = e.used || uses.refs[e.relDir+"."+e.name]
		}
		if live || r.allowedAt(RuleDeadcode, e.pos) {
			continue
		}
		verb := "is referenced by"
		if e.kind == "field" {
			verb = "is read by"
		}
		*diags = append(*diags, Diagnostic{
			Pos:  e.pos,
			Rule: RuleDeadcode,
			Msg:  "exported " + e.kind + " " + name + " " + verb + " no non-test file in the module; delete it or //lint:allow deadcode <reason>",
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

// moduleUses is what the non-test files of the module say about names.
type moduleUses struct {
	// refs holds the "relDir.Name" selectors that name a package of the
	// module through an import.
	refs map[string]bool
	// reads maps a selected name to the "relDir.Type" of each method
	// selecting it, or "" for a selection outside any method. A selection
	// as the target of an assignment or ++/-- is a write, not a read.
	reads map[string]map[string]bool
	// interfaces holds the method names some interface type declares.
	interfaces map[string]bool
}

// moduleUses parses every non-test Go file under Root. Like the stub
// importer, it takes a package's name to be the last element of its import
// path.
func (r *Runner) moduleUses(modPath string) (*moduleUses, error) {
	uses := &moduleUses{refs: make(map[string]bool), reads: make(map[string]map[string]bool), interfaces: make(map[string]bool)}
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
		relDir, err := filepath.Rel(r.Root, filepath.Dir(path))
		if err != nil {
			return err
		}
		relDir = filepath.ToSlash(relDir)
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
		for _, decl := range f.Decls {
			owner := ""
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv != nil {
				if id := recvIdent(fd); id != nil {
					owner = relDir + "." + id.Name
				}
			}
			written := make(map[*ast.SelectorExpr]bool)
			ast.Inspect(decl, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					if n.Tok != token.DEFINE {
						for _, lhs := range n.Lhs {
							if sel, ok := lhs.(*ast.SelectorExpr); ok {
								written[sel] = true
							}
						}
					}
				case *ast.IncDecStmt:
					if sel, ok := n.X.(*ast.SelectorExpr); ok {
						written[sel] = true
					}
				case *ast.InterfaceType:
					for _, m := range n.Methods.List {
						for _, id := range m.Names {
							uses.interfaces[id.Name] = true
						}
					}
				case *ast.SelectorExpr:
					if x, ok := n.X.(*ast.Ident); ok && imported[x.Name] != "" {
						uses.refs[imported[x.Name]+"."+n.Sel.Name] = true
					}
					if !written[n] {
						if uses.reads[n.Sel.Name] == nil {
							uses.reads[n.Sel.Name] = make(map[string]bool)
						}
						uses.reads[n.Sel.Name][owner] = true
					}
				}
				return true
			})
		}
		return nil
	})
	return uses, err
}
