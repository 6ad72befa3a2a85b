// Command deadapi reports the exported API in internal/... that no
// non-test file reads, so that dead code is found by a gate instead of by
// someone noticing it.
//
// It type-checks the non-test files of the module in the working
// directory (cmd/, examples/ and scripts/ included) and of every module nested under it
// (bench/), then marks each exported package-level identifier of an
// internal/ package, and each exported method of a package-level type
// there, by who reads it:
//
//   - live: a non-test file of the root module reads it, or it is a
//     method whose receiver implements an interface that declares it
//     (in the repo or in the standard library: scan.Pass, fmt.Stringer,
//     http.Handler);
//   - pinned: only a nested module reads it. Pinned symbols are listed
//     and never fail the run;
//   - dead: nothing but tests reads it.
//
// A read from inside the symbol's own declaration (a recursive call, a
// method's receiver) does not count. Struct fields are out of scope.
//
// A dead symbol fails the run unless scripts/deadapi.allow lists it on a
// line "<pkg>.<Name>  <kind>: <why>" (methods as <pkg>.<Type>.<Method>),
// where kind is one of
//
//	documented  a capability DESIGN.md or PAPER.md documents
//	fixture     another package's tests build on it
//	checked     a named test checks it as a reference or paper claim
//
// A line with no such reason, and a stale line (the symbol is gone, or
// now read), fail the run too.
//
// Usage, from the repository root:
//
//	go run ./scripts/deadapi
//
// Exit status 1 means a check failed, 2 that the tree did not load.
package main

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	r, err := analyze(".")
	if err != nil {
		fmt.Fprintf(os.Stderr, "deadapi: %v\n", err)
		os.Exit(2)
	}
	os.Exit(report(r, filepath.Join("scripts", "deadapi.allow"), os.Stdout, os.Stderr))
}

// report checks r against the allow file, prints the failures and the
// pinned list, and returns the exit status.
func report(r *result, allowPath string, stdout, stderr io.Writer) int {
	allowed, err := readAllow(allowPath)
	if err != nil {
		fmt.Fprintf(stderr, "deadapi: %v\n", err)
		return 2
	}
	failures := 0
	fail := func(format string, args ...any) {
		fmt.Fprintf(stderr, format+"\n", args...)
		failures++
	}
	for _, line := range allowed {
		switch {
		case !validReason(line.reason):
			fail("%s:%d: %s: reason must start with documented:, fixture: or checked:", allowPath, line.no, line.name)
		case r.dead[line.name] == "":
			fail("%s:%d: %s: stale, the symbol is gone or read", allowPath, line.no, line.name)
		}
	}
	listed := make(map[string]bool, len(allowed))
	for _, line := range allowed {
		listed[line.name] = true
	}
	for _, name := range sortedKeys(r.dead) {
		if !listed[name] {
			fail("%s: %s: dead export (only tests read it); delete it or list it in %s", r.dead[name], name, allowPath)
		}
	}
	if len(r.pinned) > 0 {
		fmt.Fprintf(stdout, "pinned: %d export(s) only a nested module reads\n", len(r.pinned))
		for _, name := range sortedKeys(r.pinned) {
			fmt.Fprintf(stdout, "  %-44s %s\n", name, r.pinned[name])
		}
	}
	fmt.Fprintf(stdout, "deadapi: %d dead export(s), %d allowed, %d failure(s)\n", len(r.dead), len(allowed), failures)
	if failures > 0 {
		return 1
	}
	return 0
}

// result maps each dead symbol to its declaration's position, and each
// pinned symbol to a nested module that reads it.
type result struct {
	dead   map[string]string
	pinned map[string]string
}

// pkg is one directory of non-test Go files.
type pkg struct {
	nested string // the nested module's directory, "" in the root module
	files  []*ast.File
	types  *types.Package
	info   *types.Info
}

type loader struct {
	fset *token.FileSet
	std  types.Importer
	pkgs map[string]*pkg // by import path
}

// analyze loads and type-checks every package under root and sorts the
// internal/ API into dead and pinned.
func analyze(root string) (*result, error) {
	// The source importer builds std from source; without cgo it needs
	// no C toolchain, and the exported API it sees is the same.
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	// One importer for every package: two would give two distinct
	// time.Time types, and the type check would fail.
	l := &loader{fset: fset, std: importer.ForCompiler(fset, "source", nil), pkgs: map[string]*pkg{}}
	modPath, err := modulePath(root)
	if err != nil {
		return nil, err
	}
	if err := l.addModule(root, modPath, ""); err != nil {
		return nil, err
	}
	paths := sortedKeys(l.pkgs)
	for _, p := range paths {
		if _, err := l.check(p); err != nil {
			return nil, err
		}
	}

	used := map[types.Object]bool{}
	pinnedBy := map[types.Object]string{} // the nested module that reads it
	for _, p := range paths {
		pk := l.pkgs[p]
		for _, f := range pk.files {
			walkUses(f, pk.info, func(obj types.Object) {
				if pk.nested == "" {
					used[obj] = true
				} else {
					pinnedBy[obj] = pk.nested
				}
			})
		}
	}
	ifaces := l.interfaces()

	r := &result{dead: map[string]string{}, pinned: map[string]string{}}
	mark := func(name string, obj types.Object) {
		if used[obj] {
			return
		}
		if fn, ok := obj.(*types.Func); ok && implementsDeclarer(fn, ifaces[fn.Name()]) {
			return
		}
		if by := pinnedBy[obj]; by != "" {
			r.pinned[name] = by
			return
		}
		pos := fset.Position(obj.Pos())
		if rel, err := filepath.Rel(root, pos.Filename); err == nil {
			pos.Filename = rel
		}
		r.dead[name] = fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
	}
	for _, p := range paths {
		pk := l.pkgs[p]
		if pk.nested != "" || !strings.HasPrefix(p, modPath+"/internal/") {
			continue
		}
		scope := pk.types.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if obj.Exported() {
				mark(pk.types.Name()+"."+name, obj)
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				if m := named.Method(i); m.Exported() {
					mark(pk.types.Name()+"."+name+"."+m.Name(), m)
				}
			}
		}
	}
	return r, nil
}

// addModule records the package directories of the module in dir whose
// path is modPath, and of the modules nested in it. nested is dir
// relative to the root module's directory, "" for the root module.
func (l *loader) addModule(dir, modPath, nested string) error {
	return filepath.WalkDir(dir, func(d string, e fs.DirEntry, err error) error {
		if err != nil || !e.IsDir() {
			return err
		}
		rel, err := filepath.Rel(dir, d)
		if err != nil {
			return err
		}
		if d != dir {
			if name := e.Name(); name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			if p, err := modulePath(d); err == nil {
				if err := l.addModule(d, p, filepath.Join(nested, rel)); err != nil {
					return err
				}
				return filepath.SkipDir
			} else if !os.IsNotExist(err) {
				return err
			}
		}
		files, err := l.parseDir(d)
		if err != nil || len(files) == 0 {
			return err
		}
		l.pkgs[path.Join(modPath, filepath.ToSlash(rel))] = &pkg{nested: nested, files: files}
		return nil
	})
}

// modulePath reads the module line of dir/go.mod.
func modulePath(dir string) (string, error) {
	data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("%s: no module line", filepath.Join(dir, "go.mod"))
}

// parseDir parses dir's non-test Go files that build on this platform.
func (l *loader) parseDir(dir string) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		ok, err := build.Default.MatchFile(dir, name)
		if err != nil {
			return nil, err
		}
		if !ok {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// check type-checks the package at import path p, and first the repo
// packages it imports.
func (l *loader) check(p string) (*types.Package, error) {
	pk := l.pkgs[p]
	if pk.types != nil {
		return pk.types, nil
	}
	pk.info = &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	conf := types.Config{Importer: importerFunc(func(ip string) (*types.Package, error) {
		if l.pkgs[ip] != nil {
			return l.check(ip)
		}
		return l.std.Import(ip)
	})}
	tp, err := conf.Check(p, l.fset, pk.files, pk.info)
	if err != nil {
		return nil, err
	}
	pk.types = tp
	return tp, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// walkUses calls use for every object an identifier in f refers to,
// except from inside that object's own declaration.
func walkUses(f *ast.File, info *types.Info, use func(types.Object)) {
	for _, decl := range f.Decls {
		var own []types.Object
		switch d := decl.(type) {
		case *ast.FuncDecl:
			fn := info.Defs[d.Name].(*types.Func)
			own = append(own, fn)
			if d.Recv != nil {
				own = append(own, recvNamed(fn).Origin().Obj())
			}
			walkIdents(d, info, own, use)
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				own = own[:0]
				switch s := spec.(type) {
				case *ast.TypeSpec:
					own = append(own, info.Defs[s.Name])
				case *ast.ValueSpec:
					for _, n := range s.Names {
						own = append(own, info.Defs[n])
					}
				}
				walkIdents(spec, info, own, use)
			}
		}
	}
}

func walkIdents(n ast.Node, info *types.Info, own []types.Object, use func(types.Object)) {
	ast.Inspect(n, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := info.Uses[id]
		if fn, ok := obj.(*types.Func); ok {
			obj = fn.Origin() // a method of an instantiated generic type
		}
		if obj == nil {
			return true
		}
		for _, o := range own {
			if o == obj {
				return true
			}
		}
		use(obj)
		return true
	})
}

// recvNamed is the named type method fn is declared on.
func recvNamed(fn *types.Func) *types.Named {
	t := fn.Type().(*types.Signature).Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := types.Unalias(t).(*types.Named)
	return n
}

// interfaces indexes by method name every interface the loaded code can
// see: the named ones of each repo package and of each package they
// import, transitively, the ones written inline in repo code, and error.
func (l *loader) interfaces() map[string][]*types.Interface {
	byName := map[string][]*types.Interface{}
	add := func(t types.Type) {
		if n, ok := t.(*types.Named); ok && n.TypeParams().Len() > 0 {
			return
		}
		it, ok := t.Underlying().(*types.Interface)
		if !ok || !it.IsMethodSet() {
			return
		}
		for i := 0; i < it.NumMethods(); i++ {
			name := it.Method(i).Name()
			byName[name] = append(byName[name], it)
		}
	}
	add(types.Universe.Lookup("error").Type())
	seen := map[*types.Package]bool{}
	var visit func(*types.Package)
	visit = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		scope := p.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				add(tn.Type())
			}
		}
		for _, imp := range p.Imports() {
			visit(imp)
		}
	}
	for _, pk := range l.pkgs {
		visit(pk.types)
		for expr, tv := range pk.info.Types {
			if _, ok := expr.(*ast.InterfaceType); ok {
				add(tv.Type)
			}
		}
	}
	return byName
}

// implementsDeclarer reports whether fn's receiver type, or a pointer to
// it, implements one of ifaces, each of which declares a method of fn's
// name.
func implementsDeclarer(fn *types.Func, ifaces []*types.Interface) bool {
	if fn.Type().(*types.Signature).Recv() == nil {
		return false
	}
	t := recvNamed(fn)
	if t.TypeParams().Len() > 0 {
		return false
	}
	for _, it := range ifaces {
		if types.Implements(t, it) || types.Implements(types.NewPointer(t), it) {
			return true
		}
	}
	return false
}

type allowLine struct {
	no           int
	name, reason string
}

// readAllow parses the allow file; blank lines and lines starting with #
// are skipped.
func readAllow(path string) ([]allowLine, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var lines []allowLine
	for i, text := range strings.Split(string(data), "\n") {
		text = strings.TrimSpace(text)
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		name, reason, _ := strings.Cut(text, " ")
		lines = append(lines, allowLine{no: i + 1, name: name, reason: strings.TrimSpace(reason)})
	}
	return lines, nil
}

// validReason reports whether an allow line's reason names one of the
// three kinds and says why.
func validReason(reason string) bool {
	kind, why, ok := strings.Cut(reason, ":")
	switch kind {
	case "documented", "fixture", "checked":
		return ok && strings.TrimSpace(why) != ""
	}
	return false
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
