// Package lint is qoslint: a custom static-analysis pass that enforces the
// simulator's determinism and panic-discipline contracts at review time,
// instead of hoping the golden replay tests catch a regression at run time.
//
// The paper's cutoff-point and importance-factor results are reproducible
// only because the engine is bit-deterministic: same seed, same trace, same
// figures. That property is easy to break silently — a stray time.Now, a
// global math/rand call, or an unsorted map iteration all type-check, pass
// unit tests, and corrupt replay. qoslint encodes those invariants as typed
// diagnostics with file:line positions.
//
// Rules:
//
//   - nondeterminism: time.Now/time.Since and math/rand imports are banned
//     in library code; all randomness must flow through internal/rng. The
//     single sanctioned exception is internal/clock's wall implementation
//     (wall.go), allowlisted by package and file so real-time reads have
//     exactly one home instead of scattered waivers.
//   - maporder: ranging over a map in library code is flagged unless the
//     keys/values are collected into a slice that the same function sorts.
//   - panicmsg: panics in library packages must carry a "<pkg>: ..." prefixed
//     message or a typed error value; bare panic(err) is banned.
//   - floatcmp: ==/!= between floats in internal/sched, internal/pullqueue
//     and internal/policy is flagged — tie-breaks there must be explicit.
//   - registrydoc: every policy name registered with policy.RegisterPull or
//     policy.RegisterPush, and every built-in routing policy, must be
//     documented in README.md or DESIGN.md.
//   - deadcode: every exported top-level func, type, var and const, method
//     and struct field in internal/ must be used by some non-test file of
//     the module (nested modules such as perfbench/ included), whichever
//     packages were linted. A use inside the declaration itself does not
//     count. Methods and fields are matched by name, since the stub
//     importer cannot resolve a receiver from another package: a method is
//     live if a selector outside its own receiver type's methods names it,
//     an interface of the module declares it, or it is one of the stdlib
//     interface methods the module reaches without naming them (Error,
//     String, Unwrap, MarshalJSON, UnmarshalJSON, MarshalText,
//     UnmarshalText, Import); a field is live if a selector reads it (names
//     it other than as the target of =, op=, ++ or --) or it has a json:
//     tag. Matching by name can miss dead code, and it reports a method
//     reached only through an unlisted stdlib interface or a field read
//     only through reflection; those take a waiver.
//
// On top of the per-file walks, a small intra-procedural dataflow engine
// (dataflow.go) tracks value provenance through assignments and positions
// (loop bodies, closure literals) inside each function, powering four
// flow-sensitive rules:
//
//   - rngflow: every random draw must be reachable from a seeded constructor
//     argument. Package-level rng streams, constant-seeded rng.New calls in
//     library code (worse still inside loops), and draws on zero-value
//     streams that were never Reseed-ed are all flagged.
//   - hotalloc: functions annotated //qos:hotpath may not contain allocating
//     constructs — growing append, make with a non-constant size, closures
//     that capture locals, explicit interface conversions, or string
//     concatenation. This is the static gate backing the
//     allocs/request ceiling (TestAllocsPerRequestCeiling).
//   - goroutines: only internal/workpool, internal/clock and
//     internal/httpserve may spawn goroutines; every mutex Lock/RLock must
//     be balanced by a defer or a same-block Unlock/RUnlock on all paths.
//   - barriersafe: fields of types annotated //qos:sharded (per-cell state
//     owned by the cluster's parallel phase) may only be touched inside
//     functions annotated //qos:barrier. Closures never inherit the
//     annotation, so a parallel-phase closure needs an explicit waiver.
//
// A finding can be waived in place with a justified escape hatch:
//
//	//lint:allow <rule> <reason>
//
// on the offending line or the line directly above it. Allow comments that
// name an unknown rule, or omit the reason, are themselves diagnostics — and
// so are //qos: annotations that name an unknown marker or sit detached from
// any declaration.
//
// The analysis is stdlib-only (go/ast, go/parser, go/token, go/types). Each
// package is type-checked in isolation with stubbed imports: intra-package
// types (map ranges, float operands, sharded structs) resolve fully,
// cross-package types degrade to "unknown" and the rules stay conservative
// rather than guess. Packages are analysed in parallel on internal/workpool;
// results land in index-addressed slots and merge in directory order, so the
// diagnostic stream is deterministic at any worker count.
package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"hybridqos/internal/workpool"
)

// Diagnostic is one finding: a rule name, a position, and a message.
type Diagnostic struct {
	Pos  token.Position
	Rule string
	Msg  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Rule, d.Msg)
}

// Rule names, in the order they are documented.
const (
	RuleNondeterminism = "nondeterminism"
	RuleMapOrder       = "maporder"
	RulePanicMsg       = "panicmsg"
	RuleFloatCmp       = "floatcmp"
	RuleRegistryDoc    = "registrydoc"
	RuleRngFlow        = "rngflow"
	RuleHotAlloc       = "hotalloc"
	RuleGoroutines     = "goroutines"
	RuleBarrierSafe    = "barriersafe"
	RuleDeadcode       = "deadcode"
	// RuleAllow tags malformed //lint:allow comments (unknown rule name or
	// missing reason) and malformed //qos: annotations. It cannot itself be
	// allowed.
	RuleAllow = "allow"
)

// knownRules is the set of rule names an allow comment may reference.
var knownRules = map[string]bool{
	RuleNondeterminism: true,
	RuleMapOrder:       true,
	RulePanicMsg:       true,
	RuleFloatCmp:       true,
	RuleRegistryDoc:    true,
	RuleRngFlow:        true,
	RuleHotAlloc:       true,
	RuleGoroutines:     true,
	RuleBarrierSafe:    true,
	RuleDeadcode:       true,
}

// Runner lints a module tree rooted at Root.
type Runner struct {
	// Root is the module root; relative package directories and DocFiles
	// resolve against it.
	Root string
	// DocFiles are the documentation files (relative to Root) that the
	// registrydoc rule searches for registered policy names. Defaults to
	// README.md and DESIGN.md.
	DocFiles []string
	// GoroutineDirs adds package directories (slash-separated, relative to
	// Root) to the goroutines rule's sanctioned-spawner set, on top of the
	// built-in internal/workpool, internal/clock and internal/httpserve.
	// Rule configuration, not a waiver: a whole package whose job is
	// concurrency belongs here; a one-off `go` statement does not.
	GoroutineDirs []string

	// allows accumulates the //lint:allow waivers from every linted file,
	// so cross-package rules (registrydoc, deadcode) honour them too.
	allows map[allowKey]allowEntry
}

// scope classifies a package directory for rule applicability.
type scope int

const (
	// scopeLibrary: the facade (module root) and internal/ packages. All
	// rules apply.
	scopeLibrary scope = iota
	// scopeMain: cmd/ and examples/ binaries. Only registrydoc applies —
	// wall-clock timing in a CLI is fine, but an undocumented policy name
	// is not.
	scopeMain
)

// pkg is one parsed, type-checked package directory.
type pkg struct {
	fset   *token.FileSet
	files  []*ast.File
	info   *types.Info
	name   string // package name, e.g. "catalog"
	relDir string // slash-separated dir relative to Root; "." for the facade
	scope  scope
	runner *Runner
	out    *pkgOutput
	allows map[allowKey]allowEntry
	ann    *annotations
}

// pkgOutput is the index-addressed result slot one lintDir job writes into.
// Keeping every mutable output package-local is what makes the parallel run
// race-free; the merge in Run is a deterministic directory-order fold.
type pkgOutput struct {
	diags   []Diagnostic
	regs    []registration
	allows  []allowRecord
	exports []export
}

// allowRecord is an allow-map entry in slice form, so merging package results
// never ranges over a map (qoslint practices what it preaches).
type allowRecord struct {
	key   allowKey
	entry allowEntry
}

// Run lints the packages matched by patterns. A pattern is a directory
// relative to Root, or a directory followed by "/..." for a recursive walk
// ("./..." walks the whole module). It returns the diagnostics sorted by
// (file, line, column, rule); the error is reserved for I/O and parse
// failures, not findings.
func (r *Runner) Run(patterns ...string) ([]Diagnostic, error) {
	dirs, err := r.expand(patterns)
	if err != nil {
		return nil, err
	}
	// One job per package directory. The stub-import type-checker keeps each
	// job hermetic (no shared FileSet, no shared types.Info), so the only
	// cross-package state — waivers and exports consulted by registrydoc and
	// deadcode — is merged after the barrier, in directory order.
	results := make([]pkgOutput, len(dirs))
	if err := workpool.Run(len(dirs), func(i int) error {
		return r.lintDir(dirs[i], &results[i])
	}); err != nil {
		return nil, err
	}
	r.allows = make(map[allowKey]allowEntry)
	var diags []Diagnostic
	var regs []registration
	var exports []export
	for i := range results {
		diags = append(diags, results[i].diags...)
		regs = append(regs, results[i].regs...)
		exports = append(exports, results[i].exports...)
		for _, rec := range results[i].allows {
			r.allows[rec.key] = rec.entry
		}
	}
	if err := r.checkRegistryDoc(regs, &diags); err != nil {
		return nil, err
	}
	if err := r.checkDeadcode(exports, &diags); err != nil {
		return nil, err
	}
	sortDiagnostics(diags)
	return diags, nil
}

// sortDiagnostics orders findings by (file, line, column, rule) so output is
// stable regardless of package walk order or worker interleaving.
func sortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Rule < b.Rule
	})
}

// expand resolves the patterns into a sorted, de-duplicated list of package
// directories containing non-test Go files.
func (r *Runner) expand(patterns []string) ([]string, error) {
	seen := make(map[string]bool)
	var dirs []string
	add := func(dir string) {
		if !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	for _, pat := range patterns {
		recursive := false
		if pat == "..." {
			pat, recursive = ".", true
		} else if strings.HasSuffix(pat, "/...") {
			pat, recursive = strings.TrimSuffix(pat, "/..."), true
		}
		base := pat
		if !filepath.IsAbs(base) {
			base = filepath.Join(r.Root, base)
		}
		if !recursive {
			ok, err := hasGoFiles(base)
			if err != nil {
				return nil, err
			}
			if ok {
				add(base)
			}
			continue
		}
		err := filepath.WalkDir(base, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			if path != base && skippedDir(d.Name()) {
				return filepath.SkipDir
			}
			ok, err := hasGoFiles(path)
			if err != nil {
				return err
			}
			if ok {
				add(path)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}

// skippedDir reports whether a recursive walk leaves out a directory, the
// way the go tool does for ./... patterns.
func skippedDir(name string) bool {
	return name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")
}

func hasGoFiles(dir string) (bool, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return false, fmt.Errorf("lint: no such directory %s", dir)
		}
		return false, err
	}
	for _, e := range entries {
		if !e.IsDir() && isLintedFile(e.Name()) {
			return true, nil
		}
	}
	return false, nil
}

// isLintedFile reports whether a file name is a non-test Go source file.
func isLintedFile(name string) bool {
	return strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go")
}

// lintDir parses, type-checks and rule-checks one package directory, writing
// every result into out (its private slot in the parallel run).
func (r *Runner) lintDir(dir string, out *pkgOutput) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	fset := token.NewFileSet()
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !isLintedFile(e.Name()) {
			continue
		}
		path := filepath.Join(dir, e.Name())
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return fmt.Errorf("lint: parse %s: %w", path, err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil
	}
	rel, err := filepath.Rel(r.Root, dir)
	if err != nil {
		rel = dir
	}
	rel = filepath.ToSlash(rel)

	p := &pkg{
		fset:   fset,
		files:  files,
		name:   files[0].Name.Name,
		relDir: rel,
		scope:  scopeOf(rel, files[0].Name.Name),
		runner: r,
		out:    out,
		allows: make(map[allowKey]allowEntry),
	}
	p.info = typecheck(fset, dir, files)
	p.collectAllows()
	p.collectAnnotations()

	checkRegistryCalls(p)
	collectExports(p)
	if p.scope == scopeLibrary {
		checkNondeterminism(p)
		checkMapOrder(p)
		checkPanicMsg(p)
		checkRngFlow(p)
		checkGoroutines(p)
	}
	if floatCmpDirs[p.relDir] {
		checkFloatCmp(p)
	}
	// hotalloc and barriersafe are annotation-driven opt-ins: they run in
	// every scope, and cost nothing where no annotations exist.
	checkHotAlloc(p)
	checkBarrierSafe(p)
	return nil
}

// scopeOf classifies a package directory. The facade (module root) and
// everything under internal/ is library scope; cmd/, examples/ and any other
// package main is binary scope.
func scopeOf(relDir, pkgName string) scope {
	if relDir == "." || inInternal(relDir) {
		return scopeLibrary
	}
	if pkgName == "main" {
		return scopeMain
	}
	return scopeLibrary
}

// inInternal reports whether a package directory is internal/ or below it.
func inInternal(relDir string) bool {
	return relDir == "internal" || strings.HasPrefix(relDir, "internal/")
}

// floatCmpDirs are the packages where float equality is a tie-break hazard:
// every ==/!= there orders the pull queue or selects a policy winner.
var floatCmpDirs = map[string]bool{
	"internal/sched":     true,
	"internal/pullqueue": true,
	"internal/policy":    true,
}

// typecheck runs go/types over the package with stubbed-out imports. Errors
// are expected (imports are opaque) and ignored; the point is the partial
// types.Info, which fully resolves intra-package types.
func typecheck(fset *token.FileSet, dir string, files []*ast.File) *types.Info {
	info := &types.Info{
		Types: make(map[ast.Expr]types.TypeAndValue),
		Uses:  make(map[*ast.Ident]types.Object),
		Defs:  make(map[*ast.Ident]types.Object),
	}
	conf := types.Config{
		Importer:    stubImporter{cache: make(map[string]*types.Package)},
		Error:       func(error) {}, // partial information is fine
		FakeImportC: true,
	}
	// The returned error only repeats what Error already swallowed.
	conf.Check(dir, fset, files, info) //nolint:errcheck
	return info
}

// stubImporter satisfies every import with an empty package so isolated
// type-checking never touches the network, GOPATH or export data.
type stubImporter struct {
	cache map[string]*types.Package
}

func (s stubImporter) Import(path string) (*types.Package, error) {
	if p, ok := s.cache[path]; ok {
		return p, nil
	}
	parts := strings.Split(path, "/")
	name := parts[len(parts)-1]
	if len(parts) > 1 && (name == "v2" || name == "v3") {
		name = parts[len(parts)-2]
	}
	p := types.NewPackage(path, name)
	// An importer must hand back complete packages or go/types drops the
	// import entirely (and with it the PkgName resolution the rules need);
	// an empty-but-complete package keeps selector errors local.
	p.MarkComplete()
	s.cache[path] = p
	return p, nil
}

// report files a diagnostic unless an allow comment covers it.
func (p *pkg) report(rule string, pos token.Pos, format string, args ...any) {
	position := p.fset.Position(pos)
	if p.allowed(rule, position) {
		return
	}
	p.out.diags = append(p.out.diags, Diagnostic{
		Pos:  position,
		Rule: rule,
		Msg:  fmt.Sprintf(format, args...),
	})
}

// pkgPath reports the ident's package, or "" if it is not a package name.
// Used to tell time.Now (the package) from time.Now (a field on a local
// variable that happens to be called time).
func (p *pkg) pkgPath(id *ast.Ident) string {
	if obj, ok := p.info.Uses[id]; ok {
		if pn, ok := obj.(*types.PkgName); ok {
			return pn.Imported().Path()
		}
		return ""
	}
	return ""
}

// isBuiltin reports whether the ident resolves to the named builtin (panic,
// append, ...), guarding against local shadowing.
func (p *pkg) isBuiltin(id *ast.Ident, name string) bool {
	if id.Name != name {
		return false
	}
	obj, ok := p.info.Uses[id]
	if !ok {
		// Unresolved (type-check noise): assume the spelling means the
		// builtin rather than silently skipping the check.
		return true
	}
	_, builtin := obj.(*types.Builtin)
	return builtin
}
