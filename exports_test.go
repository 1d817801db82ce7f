package ctsan

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"unicode"
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
// it into the tests, or give it a caller. Each exported field of a
// struct type of ctsan/internal/... that carries no json tag is written
// by such a file — as a composite-literal key, in an assignment, through
// &x.F, or by calling a method on it — or it is a knob nothing turns.
// The allowlist names, for each entry, the test that cannot observe its
// behaviour any other way.
func TestEveryExportHasACaller(t *testing.T) {
	allow := map[string]string{
		"ctsan/internal/experiment.Harnesses.Len":         "campaign's TestReusedAssembliesMatchOnePointStudies, TestIdleWorkerRunsReplicasOfTheLastPoint, TestEvictionKeepsResultsAndBound and TestFineGridBuildsSixAssemblies count the harnesses a worker retains",
		"ctsan/internal/sanmodel.Models.Len":              "campaign's TestReusedAssembliesMatchOnePointStudies, TestIdleWorkerRunsReplicasOfTheLastPoint, TestEvictionKeepsResultsAndBound and TestFineGridBuildsSixAssemblies count the SAN models a worker retains",
		"ctsan/internal/san.Sim.SetFullRescan":            "the reference path sanmodel's TestDepTrackingMatchesFullRescan and san's TestQuickDepTrackingEquivalence, TestQuickResetEquivalentToNewSim and TestTimedArmingOrder compare the dependency index against",
		"ctsan/internal/experiment.LatencySpec.Params":    "the root BenchmarkAblationSchedulerQuantum runs Fig. 9(a)'s class-3 point without the scheduler grid (GridProb 0); its only product writer was ThroughputSpec.Params, which nothing set",
		"ctsan/internal/netsim.Params.CrashedConsumeWire": "the full-path cost of a send to a crashed host, which the SAN model implicitly charges: experiment.TestEnginesAgreeUnderZeroVariance sets it to align the emulator with the SAN exactly, and ROADMAP 2c decides whether the default (false) makes a dead coordinator too cheap",
		"ctsan/internal/sanmodel.Params.UnicastBroadcast": "an ablation: campaign/san_golden_test.go and sanmodel's differentials run it, and ROADMAP 1b would put it on SANPoint",
		"ctsan/internal/sanmodel.Params.FDCorrelated":     "an ablation: campaign/san_golden_test.go and sanmodel's differentials run it, and ROADMAP 1b would put it on SANPoint",
	}
	m, paths := loadModule(t)

	var dead []string
	unwritten := map[string]bool{}
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
			st, ok := named.Underlying().(*types.Struct)
			for i := 0; ok && i < st.NumFields(); i++ {
				f := st.Field(i)
				_, tagged := reflect.StructTag(st.Tag(i)).Lookup("json")
				if key := p + "." + name + "." + f.Name(); f.Exported() && !f.Embedded() && !tagged && !m.writes[f] {
					dead = append(dead, key)
					unwritten[key] = true
				}
			}
		}
	}
	sort.Strings(dead)
	for _, key := range dead {
		switch {
		case allow[key] != "":
			t.Logf("%s is kept for its tests: %s", key, allow[key])
		case unwritten[key]:
			t.Errorf("%s is an exported field no non-test file of the module writes", key)
		default:
			t.Errorf("%s is exported but no non-test file of the module uses it", key)
		}
	}
	for key := range allow {
		if !contains(dead, key) {
			t.Errorf("allowlist entry %s has a non-test caller now: remove the entry", key)
		}
	}
}

// TestContractIsStaticallyDeterministic reads the code for what sampled
// runs cannot see. In the packages the determinism contract covers
// (PERFORMANCE.md), no non-test file does any of the following unless
// the allowlist says why the outcome cannot depend on it:
//
//   - R1: range over a map, whose iteration order Go randomizes per
//     loop. A sum over a map breaks the contract's ordered folds (rule 2)
//     only when the map has enough entries and the order is unlucky.
//   - R2: read the wall clock or wait on it (time.Now, Since, Until,
//     Sleep, timers, tickers). A clock the code needs is an argument,
//     as shard.Ledger's is.
//   - R3: import math/rand, or ask the machine its CPU count
//     (runtime.NumCPU, runtime.GOMAXPROCS): randomness is drawn from rng
//     streams, and only parallel sizes its pool from the machine.
//   - R4: sort with a comparator and an unstable algorithm (sort.Slice,
//     sort.Sort, slices.SortFunc). Unless the order is total, how ties
//     land may change between Go releases; each site says why its order
//     is total or why tied elements cannot change the result.
//   - R6: start a goroutine or wait in a select. Concurrency is the
//     pool's (parallel), whose schedules the contract makes invisible in
//     results; code elsewhere that spawns or races goroutines would not
//     be held to it.
//
// Entries are keyed by package, function and construct ("for k, v :=
// range m", "time.Now", "sort.Slice(items)", "import math/rand"), not by
// position, so code rewritten to use what it names differently needs its
// entry rewritten too, and an entry whose construct is gone fails the
// test.
func TestContractIsStaticallyDeterministic(t *testing.T) {
	contract := []string{"des", "san", "sanmodel", "netsim", "neko", "fd", "consensus", "experiment", "scenario",
		"metrics", "stats", "rng", "dist", "fit", "trace", "parallel", "shard"}
	rules := map[string]string{
		"R1": "a range over a map; iterate in a fixed order, or allowlist it with the reason its outcome cannot depend on the order",
		"R2": "the wall clock; take the time as an argument instead",
		"R3": "math/rand or the CPU count; draw from an rng stream, and leave sizing the pool to parallel",
		"R4": "an unstable sort by a comparator; make the order total and allowlist it saying so, or say why ties cannot change the result",
		"R6": "a go statement or a select; run concurrent work on a parallel.Pool",
	}
	allow := map[string]string{
		"ctsan/internal/consensus.Engine.Reset: for cid, in := range e.active":        "recycles every active instance onto the free list: the order picks only which record a later Propose reuses, and recycle clears every field an instance computes with",
		"ctsan/internal/consensus.Engine.Reset: for cid, buf := range e.pending":      "returns every pending buffer, emptied, to the free list: the order picks only whose capacity a later instance reuses",
		"ctsan/internal/consensus.Engine.onFDChange: for cid := range e.active":       "collects the active instance ids, which are sorted before any instance is notified",
		"ctsan/internal/scenario.Names: for n := range registry":                      "collects the names, which are sorted before they are returned",
		"ctsan/internal/scenario.Scenario.compileInto: for pid, ivs := range tl.down": "empties each process's crash intervals; an iteration touches its own key only",
		"ctsan/internal/shard.Ledger.Cancel: for _, o := range l.leases":              "releases every lease: each clears its own points' leased flags, the pending count is a sum and the front a minimum, and holder counts are integers",
		"ctsan/internal/shard.Ledger.expireLocked: for _, o := range l.leases":        "releases the expired leases: each clears its own points' leased flags, the pending count is a sum and the front a minimum, and the counts are integers",

		"ctsan/internal/parallel.Workers: runtime.GOMAXPROCS": "the pool's default width: a result is byte-identical at any worker count (rule 1)",

		"ctsan/internal/parallel.Pool.run: go (func() literal)": "the pool's workers, one goroutine each for one top-level loop: the pool is where the contract's concurrency lives, and no result depends on its schedule (rule 1)",

		"ctsan/internal/fit.FitBimodal: sort.Slice(gaps)":           "a total order: equal gaps break ties on k, the split position, which is unique",
		"ctsan/internal/metrics.sketch.grid: sort.Slice(items)":     "tied items carry the same value v, and the output is a sequence of values: the weights of a tie sum to the same rank range in any order",
		"ctsan/internal/metrics.sketch.quantile: sort.Slice(items)": "tied items carry the same value v, and the answer interpolates between values: the weights of a tie sum to the same rank range in any order",
	}
	m, _ := loadModule(t)
	found := map[string]string{}
	for _, name := range contract {
		for _, h := range m.hazards["ctsan/internal/"+name] {
			found[h.key] = h.rule
		}
	}
	for _, h := range m.hazards["ctsan/campaign"] {
		found[h.key] = h.rule
	}
	var keys []string
	for key := range found {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		if allow[key] == "" {
			t.Errorf("%s: rule %s of the determinism contract: %s", key, found[key], rules[found[key]])
		}
	}
	for key := range allow {
		if found[key] == "" {
			t.Errorf("allowlist entry %q names nothing the contract's rules forbid any more: remove the entry", key)
		}
	}
}

// TestPerformanceDocNamesResolve holds PERFORMANCE.md to the code it
// describes. Outside fenced code blocks, every backticked pkg.Name or
// pkg.Name.Member whose pkg is a package of the module (its last path
// element, or its path below the module such as cmd/ctsan) names
// something that exists now: a func, type, var, const, method or field,
// exported or not, of the package's non-test or test files. A name whose
// last element is lowercase may instead be a metric BENCHMARK.json
// lists. The file has at most 300 lines, so it can only say what is true
// now; history goes to CHANGES.md.
func TestPerformanceDocNamesResolve(t *testing.T) {
	const maxLines = 300
	m, paths := loadModule(t)
	doc, err := os.ReadFile("PERFORMANCE.md")
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(strings.TrimRight(string(doc), "\n"), "\n") + 1; n > maxLines {
		t.Errorf("PERFORMANCE.md has %d lines, want at most %d: state the current design, put history in CHANGES.md", n, maxLines)
	}
	metrics := benchmarkMetrics(t)
	pkgs := map[string][]string{} // "san" and "internal/san" -> "ctsan/internal/san"
	for _, p := range paths {
		pkgs[path.Base(p)] = append(pkgs[path.Base(p)], p)
		if rel, ok := strings.CutPrefix(p, "ctsan/"); ok && rel != path.Base(p) {
			pkgs[rel] = append(pkgs[rel], p)
		}
	}
	testDecls, err := m.testDecls()
	if err != nil {
		t.Fatal(err)
	}
	line, fenced := 0, false
	for _, text := range strings.SplitAfter(string(doc), "\n") {
		line++
		if strings.HasPrefix(strings.TrimSpace(text), "```") {
			fenced = !fenced
		}
		if fenced {
			continue
		}
		for _, span := range codeSpan.FindAllStringSubmatch(text, -1) {
			name := strings.TrimSuffix(span[1], "()")
			f := docName.FindStringSubmatch(name)
			if f == nil || pkgs[f[1]] == nil || fileName.MatchString(name) {
				continue // not a name in the module, or a file such as trace.go
			}
			elems := strings.Split(f[2], ".")
			if m.declares(pkgs[f[1]], elems, testDecls) {
				continue
			}
			if last := elems[len(elems)-1]; unicode.IsLower(rune(last[0])) && metrics[name] {
				continue
			}
			t.Errorf("PERFORMANCE.md:%d: `%s` is neither a declaration of %s nor a metric of BENCHMARK.json", line, span[1], strings.Join(pkgs[f[1]], " or "))
		}
	}
}

var (
	codeSpan = regexp.MustCompile("`([^`\n]+)`")
	docName  = regexp.MustCompile(`^([a-z][a-z0-9_/]*)\.([A-Za-z0-9_.-]+)$`)
	fileName = regexp.MustCompile(`\.(go|golden|json|jsonl|md|pprof|sh|stdout|txt)$`)
)

// benchmarkMetrics is the set of metric names BENCHMARK.json declares.
func benchmarkMetrics(t *testing.T) map[string]bool {
	t.Helper()
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var reg struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &reg); err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, m := range append(reg.EndToEnd, reg.PerLayer...) {
		names[m.Name] = true
	}
	return names
}

// declares reports whether one of the packages declares elems[0] and, if
// elems has a second element, a field or method of that name on it — in
// its non-test files, as type-checked, or in its test files.
func (m *moduleImporter) declares(paths, elems []string, testDecls map[string]bool) bool {
	if len(elems) > 2 {
		return false
	}
	for _, p := range paths {
		if testDecls[p+"."+strings.Join(elems, ".")] {
			return true
		}
		obj := m.pkgs[p].Scope().Lookup(elems[0])
		if obj != nil && len(elems) == 1 {
			return true
		}
		if obj != nil {
			if member, _, _ := types.LookupFieldOrMethod(obj.Type(), true, obj.Pkg(), elems[1]); member != nil {
				return true
			}
		}
	}
	return false
}

// testDecls parses the module's test files and returns what they
// declare at package level, as "import/path.Name", with methods and
// struct fields as "import/path.Type.Member".
func (m *moduleImporter) testDecls() (map[string]bool, error) {
	decls := map[string]bool{}
	for p, files := range m.tests {
		for _, file := range files {
			f, err := parser.ParseFile(m.fset, file, nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if recv := recvName(d); recv != "" {
						decls[p+"."+recv+"."+d.Name.Name] = true
					} else {
						decls[p+"."+d.Name.Name] = true
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							decls[p+"."+s.Name.Name] = true
							if st, ok := s.Type.(*ast.StructType); ok {
								for _, field := range st.Fields.List {
									for _, id := range field.Names {
										decls[p+"."+s.Name.Name+"."+id.Name] = true
									}
								}
							}
						case *ast.ValueSpec:
							for _, id := range s.Names {
								decls[p+"."+id.Name] = true
							}
						}
					}
				}
			}
		}
	}
	return decls, nil
}

// loadModule type-checks every package of the module from its non-test
// files, once per test binary, and returns the importer with the
// packages' import paths.
func loadModule(t *testing.T) (*moduleImporter, []string) {
	t.Helper()
	module.once.Do(func() { module.m, module.paths, module.err = typeCheckModule() })
	if module.err != nil {
		t.Fatal(module.err)
	}
	return module.m, module.paths
}

var module struct {
	once  sync.Once
	m     *moduleImporter
	paths []string
	err   error
}

func typeCheckModule() (*moduleImporter, []string, error) {
	out, err := exec.Command("go", "list", "-f",
		`{{.ImportPath}}|{{.Dir}}|{{join .GoFiles ","}}|{{join .TestGoFiles ","}},{{join .XTestGoFiles ","}}`, "./...").Output()
	if err != nil {
		return nil, nil, fmt.Errorf("go list: %v", err)
	}
	m := &moduleImporter{
		fset:   token.NewFileSet(),
		srcs:   map[string][]string{},
		tests:  map[string][]string{},
		pkgs:   map[string]*types.Package{},
		uses:   map[string]bool{},
		writes: map[*types.Var]bool{},

		hazards: map[string][]hazard{},
	}
	m.std = importer.ForCompiler(m.fset, "source", nil)
	var paths []string
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		f := strings.Split(line, "|")
		if len(f) != 4 || f[2] == "" {
			continue
		}
		for _, name := range strings.Split(f[2], ",") {
			m.srcs[f[0]] = append(m.srcs[f[0]], filepath.Join(f[1], name))
		}
		for _, name := range strings.Split(f[3], ",") {
			if name != "" {
				m.tests[f[0]] = append(m.tests[f[0]], filepath.Join(f[1], name))
			}
		}
		paths = append(paths, f[0])
	}
	for _, p := range paths {
		if _, err := m.Import(p); err != nil {
			return nil, nil, fmt.Errorf("type-check %s: %v", p, err)
		}
	}
	return m, paths, m.recordSatisfied(paths)
}

// moduleImporter type-checks the module's own packages from their
// non-test files, recording which package-level objects and methods they
// use and which struct fields they write, and hands everything else to
// the standard library's source importer.
type moduleImporter struct {
	fset   *token.FileSet
	std    types.Importer
	srcs   map[string][]string // import path -> non-test files
	tests  map[string][]string // import path -> test files, not type-checked
	pkgs   map[string]*types.Package
	uses   map[string]bool     // "import/path.Name" or "import/path.Type.Method" used outside its own declaration
	writes map[*types.Var]bool // struct fields some non-test file writes
	ifaces []*types.Interface  // every interface the module's non-test files spell, named or literal
	// hazards lists, per import path, what its non-test files do that
	// TestContractIsStaticallyDeterministic's rules forbid.
	hazards map[string][]hazard
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
		Uses:       map[*ast.Ident]types.Object{},
		Types:      map[ast.Expr]types.TypeAndValue{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
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
		m.recordWrites(info, f)
		m.recordHazards(info, path, f)
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
		if recv := recvName(d); recv != "" {
			own := path + "." + recv
			m.recordUses(info, d, own, own+"."+d.Name.Name)
			return
		}
		m.recordUses(info, d, path+"."+d.Name.Name)
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

// recordWrites marks every struct field f writes: as a composite-literal
// key (an unkeyed literal writes every field), on the left of an
// assignment or ++/--, through &x.F, or as the operand of a method call
// x.F.M(). Writing x.F[i] or x.F.G writes into F too.
func (m *moduleImporter) recordWrites(info *types.Info, f *ast.File) {
	write := func(e ast.Expr) {
		for e != nil {
			switch x := ast.Unparen(e).(type) {
			case *ast.SelectorExpr:
				if s := info.Selections[x]; s != nil && s.Kind() == types.FieldVal {
					m.writes[s.Obj().(*types.Var).Origin()] = true
				}
				e = x.X
			case *ast.IndexExpr:
				e = x.X
			case *ast.StarExpr:
				e = x.X
			default:
				e = nil
			}
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CompositeLit:
			st, _ := info.Types[n].Type.Underlying().(*types.Struct)
			for i, el := range n.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					if v, ok := info.Uses[identOf(kv.Key)].(*types.Var); ok && v.IsField() {
						m.writes[v.Origin()] = true
					}
				} else if st != nil {
					m.writes[st.Field(i).Origin()] = true
				}
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				write(lhs)
			}
		case *ast.IncDecStmt:
			write(n.X)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				write(n.X)
			}
		case *ast.CallExpr:
			if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok {
				if s := info.Selections[sel]; s != nil && s.Kind() == types.MethodVal {
					write(sel.X)
				}
			}
		}
		return true
	})
}

// hazard is one construct a rule of TestContractIsStaticallyDeterministic
// forbids, keyed "import/path.Func: construct" (methods as
// "import/path.Type.Method: …", imports as "import/path: import p").
type hazard struct{ rule, key string }

// clockFuncs (R2) and machineFuncs (R3) are the functions those rules
// forbid; unstableSorts (R4) are the sorts by a comparator that may
// order ties differently from one Go release to the next.
var (
	clockFuncs = map[string]bool{"time.Now": true, "time.Since": true, "time.Until": true, "time.Sleep": true,
		"time.After": true, "time.AfterFunc": true, "time.NewTimer": true, "time.NewTicker": true, "time.Tick": true}
	machineFuncs  = map[string]bool{"runtime.NumCPU": true, "runtime.GOMAXPROCS": true}
	unstableSorts = map[string]bool{"sort.Slice": true, "sort.Sort": true, "slices.SortFunc": true}
)

// recordHazards lists, under the package-level declaration that holds
// them, f's ranges over a map (R1), uses of the wall clock (R2), imports
// of math/rand and CPU counts (R3), unstable sorts by a comparator (R4),
// and go statements and selects (R6).
func (m *moduleImporter) recordHazards(info *types.Info, path string, f *ast.File) {
	for _, imp := range f.Imports {
		if p, _ := strconv.Unquote(imp.Path.Value); p == "math/rand" || p == "math/rand/v2" {
			m.hazards[path] = append(m.hazards[path], hazard{"R3", path + ": import " + p})
		}
	}
	for _, decl := range f.Decls {
		name := ""
		switch d := decl.(type) {
		case *ast.FuncDecl:
			name = d.Name.Name
			if recv := recvName(d); recv != "" {
				name = recv + "." + name
			}
		case *ast.GenDecl:
			ast.Inspect(d, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && name == "" {
					name = id.Name
				}
				return name == ""
			})
		}
		add := func(rule, what string) {
			m.hazards[path] = append(m.hazards[path], hazard{rule, path + "." + name + ": " + what})
		}
		ast.Inspect(decl, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.RangeStmt:
				_, isMap := info.Types[n.X].Type.Underlying().(*types.Map)
				// maps.Keys, Values and All iterate in the map's order too.
				if call, ok := n.X.(*ast.CallExpr); ok {
					if fn, ok := calleeOf(info, call); ok && fn.Pkg() != nil && fn.Pkg().Path() == "maps" {
						isMap = true
					}
				}
				if isMap {
					loop := "for "
					if n.Key != nil {
						loop += types.ExprString(n.Key)
						if n.Value != nil {
							loop += ", " + types.ExprString(n.Value)
						}
						loop += " " + n.Tok.String() + " "
					}
					add("R1", loop+"range "+types.ExprString(n.X))
				}
			case *ast.Ident:
				// A use, called or not: var now = time.Now reads the clock
				// wherever now is called.
				if fn, ok := info.Uses[n].(*types.Func); ok && fn.Pkg() != nil && fn.Type().(*types.Signature).Recv() == nil {
					switch qual := fn.Pkg().Path() + "." + fn.Name(); {
					case clockFuncs[qual]:
						add("R2", qual)
					case machineFuncs[qual]:
						add("R3", qual)
					}
				}
			case *ast.GoStmt:
				add("R6", "go "+types.ExprString(n.Call.Fun))
			case *ast.SelectStmt:
				add("R6", "select")
			case *ast.CallExpr:
				if fn, ok := calleeOf(info, n); ok && fn.Pkg() != nil && len(n.Args) > 0 {
					if qual := fn.Pkg().Path() + "." + fn.Name(); unstableSorts[qual] {
						add("R4", qual+"("+types.ExprString(n.Args[0])+")")
					}
				}
			}
			return true
		})
	}
}

// calleeOf is the function call calls by name (pkg.F, x.M or F).
func calleeOf(info *types.Info, call *ast.CallExpr) (*types.Func, bool) {
	var id *ast.Ident
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = f
	case *ast.SelectorExpr:
		id = f.Sel
	}
	fn, ok := info.Uses[id].(*types.Func)
	return fn, ok
}

func identOf(e ast.Expr) *ast.Ident {
	id, _ := e.(*ast.Ident)
	return id
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

// recvName is the name of d's receiver type, "" for a plain function.
func recvName(d *ast.FuncDecl) string {
	recv := ""
	if d.Recv != nil {
		ast.Inspect(d.Recv.List[0].Type, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && recv == "" {
				recv = id.Name
			}
			return true
		})
	}
	return recv
}

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
