package ctsan

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestEveryExportHasACaller holds the rule "every capability has a
// caller". Each package-level exported func, type, var and const of
// ctsan/internal/... and ctsan/campaign is referenced by some non-test
// file of the module (cmd/, benchmark/ and examples/ count as callers)
// outside its own declaration. Each exported method of a named type of
// ctsan/internal/... is called by such a file, or its type satisfies a
// module or standard-library interface that declares the method (that is
// how fmt reaches String and encoding/json MarshalJSON). An export only
// tests reach is an option or a second path nobody runs: delete it, move
// it into the tests, or give it a caller. The allowlist names, for each
// entry, the test that cannot observe its behaviour any other way.
func TestEveryExportHasACaller(t *testing.T) {
	allow := map[string]string{
		"ctsan/internal/experiment.Harnesses.Len": "campaign's TestReusedAssembliesMatchOnePointStudies, TestIdleWorkerRunsReplicasOfTheLastPoint, TestEvictionKeepsResultsAndBound and TestFineGridBuildsSixAssemblies count the harnesses a worker retains",
		"ctsan/internal/sanmodel.Models.Len":      "campaign's TestReusedAssembliesMatchOnePointStudies, TestIdleWorkerRunsReplicasOfTheLastPoint, TestEvictionKeepsResultsAndBound and TestFineGridBuildsSixAssemblies count the SAN models a worker retains",
		"ctsan/internal/san.Sim.SetFullRescan":    "the reference path sanmodel's TestDepTrackingMatchesFullRescan and san's TestQuickDepTrackingEquivalence, TestQuickResetEquivalentToNewSim and TestTimedArmingOrder compare the dependency index against",
	}

	out, err := exec.Command("go", "list", "-f", `{{.ImportPath}}|{{.Dir}}|{{join .GoFiles ","}}`, "./...").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	m := &moduleImporter{
		fset: token.NewFileSet(),
		srcs: map[string][]string{},
		pkgs: map[string]*types.Package{},
		uses: map[string]bool{},
	}
	m.std = importer.ForCompiler(m.fset, "source", nil)
	var paths []string
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		f := strings.Split(line, "|")
		if len(f) != 3 || f[2] == "" {
			continue
		}
		for _, name := range strings.Split(f[2], ",") {
			m.srcs[f[0]] = append(m.srcs[f[0]], filepath.Join(f[1], name))
		}
		paths = append(paths, f[0])
	}
	for _, p := range paths {
		if _, err := m.Import(p); err != nil {
			t.Fatalf("type-check %s: %v", p, err)
		}
	}
	if err := m.recordSatisfied(paths); err != nil {
		t.Fatal(err)
	}

	var dead []string
	for _, p := range paths {
		internal := strings.HasPrefix(p, "ctsan/internal/")
		if p != "ctsan/campaign" && !internal {
			continue
		}
		scope := m.pkgs[p].Scope()
		for _, name := range scope.Names() {
			if key := p + "." + name; token.IsExported(name) && !m.uses[key] {
				dead = append(dead, key)
			}
			named := namedType(scope.Lookup(name))
			if !internal || named == nil {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				if fn := named.Method(i); fn.Exported() && !m.uses[methodKey(fn)] {
					dead = append(dead, methodKey(fn))
				}
			}
		}
	}
	sort.Strings(dead)
	for _, key := range dead {
		if reason := allow[key]; reason != "" {
			t.Logf("%s is kept for its tests: %s", key, reason)
		} else {
			t.Errorf("%s is exported but no non-test file of the module uses it", key)
		}
	}
	for key := range allow {
		if !contains(dead, key) {
			t.Errorf("allowlist entry %s has a non-test caller now: remove the entry", key)
		}
	}
}

// moduleImporter type-checks the module's own packages from their
// non-test files, recording which package-level objects and methods they
// use, and hands everything else to the standard library's source
// importer.
type moduleImporter struct {
	fset   *token.FileSet
	std    types.Importer
	srcs   map[string][]string // import path -> non-test files
	pkgs   map[string]*types.Package
	uses   map[string]bool    // "import/path.Name" or "import/path.Type.Method" used outside its own declaration
	ifaces []*types.Interface // every interface the module's non-test files spell, named or literal
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	if pkg := m.pkgs[path]; pkg != nil {
		return pkg, nil
	}
	srcs, ok := m.srcs[path]
	if !ok {
		return m.std.Import(path)
	}
	var files []*ast.File
	for _, src := range srcs {
		f, err := parser.ParseFile(m.fset, src, nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Uses:  map[*ast.Ident]types.Object{},
		Types: map[ast.Expr]types.TypeAndValue{},
	}
	pkg, err := (&types.Config{Importer: m}).Check(path, m.fset, files, info)
	if err != nil {
		return nil, err
	}
	m.pkgs[path] = pkg
	for _, f := range files {
		for _, decl := range f.Decls {
			m.record(info, path, decl)
		}
	}
	for _, tv := range info.Types {
		if iface, ok := tv.Type.Underlying().(*types.Interface); ok {
			m.ifaces = append(m.ifaces, iface)
		}
	}
	return pkg, nil
}

// record marks every package-level object and method decl refers to,
// except the ones it declares itself: a recursive call, a type named by
// its own methods' receivers, or an interface named only by compile-time
// assertions, is not a caller.
func (m *moduleImporter) record(info *types.Info, path string, decl ast.Decl) {
	switch d := decl.(type) {
	case *ast.FuncDecl:
		own := path + "." + d.Name.Name
		if d.Recv != nil {
			recv := ""
			ast.Inspect(d.Recv.List[0].Type, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && recv == "" {
					recv = id.Name
				}
				return true
			})
			own = path + "." + recv
			m.recordUses(info, d, own, own+"."+d.Name.Name)
			return
		}
		m.recordUses(info, d, own)
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				m.recordUses(info, s, path+"."+s.Name.Name)
			case *ast.ValueSpec:
				if s.Names[0].Name == "_" && s.Type != nil {
					continue // var _ I = (*T)(nil) asserts, it does not use
				}
				m.recordUses(info, s, path+"."+s.Names[0].Name)
			}
		}
	}
}

func (m *moduleImporter) recordUses(info *types.Info, node ast.Node, own ...string) {
	ast.Inspect(node, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := info.Uses[id]
		if obj == nil || obj.Pkg() == nil {
			return true
		}
		key := ""
		if fn, ok := obj.(*types.Func); ok && fn.Type().(*types.Signature).Recv() != nil {
			key = methodKey(fn.Origin())
		} else if obj.Parent() == obj.Pkg().Scope() {
			key = obj.Pkg().Path() + "." + obj.Name()
		}
		if key != "" && !contains(own, key) {
			m.uses[key] = true
		}
		return true
	})
}

// recordSatisfied marks as used every method through which a named type
// of the module satisfies an interface that declares it: an interface of
// the module, or a named interface of any standard-library package the
// module imports, directly or not.
func (m *moduleImporter) recordSatisfied(paths []string) error {
	ifaces := m.ifaces
	seen := map[*types.Package]bool{}
	var walk func(*types.Package)
	walk = func(pkg *types.Package) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				if iface, ok := tn.Type().Underlying().(*types.Interface); ok {
					ifaces = append(ifaces, iface)
				}
			}
		}
		for _, imp := range pkg.Imports() {
			walk(imp)
		}
	}
	for _, p := range paths {
		walk(m.pkgs[p])
	}
	unnamed, err := parser.ParseFile(m.fset, "unnamed.go", unnamedStdInterfaces, 0)
	if err != nil {
		return err
	}
	pkg, err := (&types.Config{}).Check("unnamed", m.fset, []*ast.File{unnamed}, nil)
	if err != nil {
		return err
	}
	walk(pkg)
	for _, p := range paths {
		pkg := m.pkgs[p]
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			named := namedType(scope.Lookup(name))
			if named == nil || named.TypeParams().Len() > 0 {
				continue
			}
			ptr := types.NewPointer(named)
			for _, iface := range ifaces {
				if iface.NumMethods() == 0 || !iface.IsMethodSet() || !types.Implements(ptr, iface) {
					continue
				}
				for i := 0; i < iface.NumMethods(); i++ {
					obj, _, _ := types.LookupFieldOrMethod(ptr, false, pkg, iface.Method(i).Name())
					if fn, ok := obj.(*types.Func); ok {
						m.uses[methodKey(fn.Origin())] = true
					}
				}
			}
		}
	}
	return nil
}

// unnamedStdInterfaces are the interfaces the standard library asserts
// on without naming them: errors.Unwrap, Is and As look for these.
const unnamedStdInterfaces = `package unnamed
type unwrapper interface{ Unwrap() error }
type multiUnwrapper interface{ Unwrap() []error }
type iser interface{ Is(error) bool }
type aser interface{ As(any) bool }
`

// namedType is obj's defined type when obj declares a non-interface type.
func namedType(obj types.Object) *types.Named {
	tn, ok := obj.(*types.TypeName)
	if !ok || tn.IsAlias() {
		return nil
	}
	named, ok := tn.Type().(*types.Named)
	if !ok || types.IsInterface(named) {
		return nil
	}
	return named
}

// methodKey is "import/path.Type.Method" for a concrete method.
func methodKey(fn *types.Func) string {
	recv := fn.Type().(*types.Signature).Recv().Type()
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	if named, ok := recv.(*types.Named); ok {
		return fn.Pkg().Path() + "." + named.Obj().Name() + "." + fn.Name()
	}
	return fn.Pkg().Path() + "." + recv.String() + "." + fn.Name() // an interface method
}

func contains(list []string, s string) bool {
	for _, x := range list {
		if x == s {
			return true
		}
	}
	return false
}
