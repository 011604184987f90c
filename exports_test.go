package rnrsim_test

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// keptExports are the exported functions and methods that no non-test
// code calls but that stay exported, each with the reason. A key is the
// declaring package's path inside the module (without "internal/"; the
// root facade is "rnrsim"), then the receiver's type name for a method,
// then the name.
var keptExports = map[string]string{
	"cpu.Stats.AvgLoadLatency":   "cpu mean load latency, kept for the planned per-layer export",
	"sim.Config.WithPrefetcher":  "sim.Config helper the bench tests use across the package boundary",
	"audit.Checker.Violations":   "audit.Checker accessor the sim and rnr tests use across the package boundary",
	"audit.Checker.Checks":       "audit.Checker sweep count the sim tests use to prove a run was audited",
	"mem.NewRequest":             "mem.Request constructor the cache, dram, rnr and sim tests build traffic with",
	"trace.Builder.Source":       "trace.Builder shorthand the trace, cpu and apps tests build core inputs with",
	"bench.Suite.FreshRuns":      "bench.Suite fresh-run count the bench and serve tests assert deduplication on",
	"sim.System.TickedCycles":    "sim.System work counter the root benchmarks report and CI pins",
	"sim.System.WakeEvals":       "sim.System work counter the root benchmarks report and CI pins",
	"graph.Graph.Validate":       "graph input check the apps tests run on every generated input",
	"sparse.Matrix.Validate":     "sparse input check the apps tests run on every generated input",
	"cluster.workerError.Unwrap": "called by errors.Is and errors.As, never by name",
	"rnrsim.PaperMachine":        "root facade: the paper's machine, public library API",
	"rnrsim.ScaledMachine":       "root facade: the bench-scale machine, public library API",
	"rnrsim.NewExperiments":      "root facade: the experiment suite, public library API",
	"rnrsim.InputsFor":           "root facade: the inputs a workload runs on, public library API",
	"rnrsim.HardwareBudget":      "root facade: RnR's on-chip storage, public library API",
}

// stdCallers are the standard-library interfaces through which the
// standard library calls this module's methods, never by name: fmt's
// verbs, encoding/json, net/http's server and flag's parser.
var stdCallers = [][2]string{
	{"fmt", "Stringer"}, {"encoding/json", "Marshaler"}, {"net/http", "Handler"}, {"flag", "Value"},
}

// TestNoTestOnlyExports fails on an exported function or method of the
// module that no non-test Go file calls: such a function is reached
// only from tests (or not at all), so it belongs in a _test.go file or
// nowhere. Every non-test package of the module is type-checked, so a
// name resolves to the function it denotes, not to every function
// spelled the same. A method also counts as called when the module, or
// the standard library through stdCallers, calls the same-named method
// of an interface its type implements. The perfbench module, examples/
// and cmd/ count as callers.
func TestNoTestOnlyExports(t *testing.T) {
	l := &moduleLoader{
		fset: token.NewFileSet(),
		std:  importer.Default(),
		pkgs: make(map[string]*types.Package),
		syn:  make(map[string][]*ast.File),
		info: &types.Info{Defs: make(map[*ast.Ident]types.Object), Uses: make(map[*ast.Ident]types.Object)},
	}
	var exported []*types.Func // exported funcs and methods declared outside perfbench
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
			return filepath.SkipDir
		}
		files, err := l.parse(path)
		if err != nil || len(files) == 0 {
			return err
		}
		if _, err := l.Import(importPath(path)); err != nil {
			return err
		}
		// perfbench is a separate module: a caller, not a subject.
		if path == "perfbench" || strings.HasPrefix(path, "perfbench/") {
			return nil
		}
		for _, f := range files {
			for _, dl := range f.Decls {
				if fn, ok := dl.(*ast.FuncDecl); ok && fn.Name.IsExported() {
					exported = append(exported, l.info.Defs[fn.Name].(*types.Func))
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(exported) == 0 {
		t.Fatal("found no exported functions: run from the module root")
	}

	called := make(map[*types.Func]bool)
	viaIface := make(map[*types.Interface]map[string]bool) // interface methods called
	for _, c := range stdCallers {
		p, err := l.std.Import(c[0])
		if err != nil {
			t.Fatal(err)
		}
		iface := p.Scope().Lookup(c[1]).Type().Underlying().(*types.Interface)
		viaIface[iface] = make(map[string]bool)
		for i := range iface.NumMethods() {
			viaIface[iface][iface.Method(i).Name()] = true
		}
	}
	for _, obj := range l.info.Uses {
		fn, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		called[fn.Origin()] = true
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			if iface, ok := recv.Type().Underlying().(*types.Interface); ok {
				if viaIface[iface] == nil {
					viaIface[iface] = make(map[string]bool)
				}
				viaIface[iface][fn.Name()] = true
			}
		}
	}
	// A call through an interface reaches the method each implementing
	// type selects, its own or one promoted from an embedded field.
	for _, obj := range l.info.Defs {
		tn, ok := obj.(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		if _, ok := tn.Type().Underlying().(*types.Interface); ok {
			continue
		}
		ptr := types.NewPointer(tn.Type())
		for iface, names := range viaIface {
			if !types.Implements(ptr, iface) {
				continue
			}
			for name := range names {
				if m, _, _ := types.LookupFieldOrMethod(ptr, true, tn.Pkg(), name); m != nil {
					called[m.(*types.Func).Origin()] = true
				}
			}
		}
	}

	var unused []string
	keys := make(map[string]bool)
	for _, fn := range exported {
		key := exportKey(fn)
		keys[key] = true
		if _, kept := keptExports[key]; !kept && !called[fn] {
			unused = append(unused, l.fset.Position(fn.Pos()).String()+": "+key)
		}
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("%s is exported but only tests use it", u)
	}
	for _, fn := range exported {
		if _, kept := keptExports[exportKey(fn)]; kept && called[fn] {
			t.Errorf("keptExports lists %s, which non-test code calls", exportKey(fn))
		}
	}
	for key := range keptExports {
		if !keys[key] {
			t.Errorf("keptExports lists %s, which is not an exported function or method", key)
		}
	}
}

// moduleLoader type-checks the module's non-test packages from source,
// recording every package's definitions and uses in one types.Info, and
// imports the standard library from its export data.
type moduleLoader struct {
	fset *token.FileSet
	std  types.Importer
	pkgs map[string]*types.Package
	syn  map[string][]*ast.File // parsed files by directory
	info *types.Info
}

const modulePath = "rnrsim"

// importPath maps a directory relative to the module root to its import
// path; perfbench's module path, rnrsim/perfbench, follows the same rule.
func importPath(dir string) string {
	if dir == "." {
		return modulePath
	}
	return modulePath + "/" + filepath.ToSlash(dir)
}

// Import implements types.Importer.
func (l *moduleLoader) Import(path string) (*types.Package, error) {
	if path != modulePath && !strings.HasPrefix(path, modulePath+"/") {
		return l.std.Import(path)
	}
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	dir := filepath.FromSlash(strings.TrimPrefix(strings.TrimPrefix(path, modulePath), "/"))
	if dir == "" {
		dir = "."
	}
	files, err := l.parse(dir)
	if err != nil {
		return nil, err
	}
	p, err := (&types.Config{Importer: l}).Check(path, l.fset, files, l.info)
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = p
	return p, nil
}

// parse parses the non-test Go files in dir that the current build
// configuration selects. Each package's files are parsed once: the
// walk parses a directory to find its declarations and the type check
// reuses the same syntax trees, so both see the same identifiers.
func (l *moduleLoader) parse(dir string) ([]*ast.File, error) {
	if files, ok := l.syn[dir]; ok {
		return files, nil
	}
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
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			if err != nil {
				return nil, err
			}
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	l.syn[dir] = files
	return files, nil
}

// exportKey names fn the way keptExports does.
func exportKey(fn *types.Func) string {
	pkg := strings.TrimPrefix(strings.TrimPrefix(fn.Pkg().Path(), modulePath+"/"), "internal/")
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if n, ok := t.(*types.Named); ok {
			return pkg + "." + n.Obj().Name() + "." + fn.Name()
		}
	}
	return pkg + "." + fn.Name()
}
