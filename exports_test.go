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
// caller": each package-level exported func, type, var and const of
// ctsan/internal/... and ctsan/campaign is referenced by some non-test
// file of the module (cmd/, benchmark/ and examples/ count as callers)
// outside its own declaration. An export only tests reach is an option
// or a second path nobody runs; delete it or give it a caller — the
// allowlist below is empty on purpose. Methods are out of scope:
// interface satisfaction makes "unreferenced" undecidable from
// identifier uses alone.
func TestEveryExportHasACaller(t *testing.T) {
	allow := map[string]bool{}

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

	var dead []string
	for _, p := range paths {
		if p != "ctsan/campaign" && !strings.HasPrefix(p, "ctsan/internal/") {
			continue
		}
		scope := m.pkgs[p].Scope()
		for _, name := range scope.Names() {
			key := p + "." + name
			if token.IsExported(name) && !m.uses[key] && !allow[key] {
				dead = append(dead, key)
			}
		}
	}
	sort.Strings(dead)
	for _, key := range dead {
		t.Errorf("%s is exported but no non-test file of the module references it", key)
	}
}

// moduleImporter type-checks the module's own packages from their
// non-test files, recording which package-level objects they use, and
// hands everything else to the standard library's source importer.
type moduleImporter struct {
	fset *token.FileSet
	std  types.Importer
	srcs map[string][]string // import path -> non-test files
	pkgs map[string]*types.Package
	uses map[string]bool // "import/path.Name" referenced outside its own declaration
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
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
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
	return pkg, nil
}

// record marks every package-level object decl refers to, except the
// ones it declares itself: a recursive call, or a type named by its own
// methods' receivers, is not a caller.
func (m *moduleImporter) record(info *types.Info, path string, decl ast.Decl) {
	switch d := decl.(type) {
	case *ast.FuncDecl:
		own := d.Name.Name
		if d.Recv != nil {
			own = ""
			ast.Inspect(d.Recv.List[0].Type, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && own == "" {
					own = id.Name
				}
				return true
			})
		}
		m.recordUses(info, d, path+"."+own)
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				m.recordUses(info, s, path+"."+s.Name.Name)
			case *ast.ValueSpec:
				m.recordUses(info, s, path+"."+s.Names[0].Name)
			}
		}
	}
}

func (m *moduleImporter) recordUses(info *types.Info, node ast.Node, own string) {
	ast.Inspect(node, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := info.Uses[id]
		if obj == nil || obj.Pkg() == nil || obj.Parent() != obj.Pkg().Scope() {
			return true
		}
		if key := obj.Pkg().Path() + "." + obj.Name(); key != own {
			m.uses[key] = true
		}
		return true
	})
}
