package rnrsim_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// keptExports are the exported functions and methods that no non-test
// code calls by name but that stay exported, each with the reason.
var keptExports = map[string]string{
	"AvgLoadLatency": "cpu.Core's mean load latency, kept for the planned per-layer export",
	"WithPrefetcher": "sim.Config helper the bench tests use across the package boundary",
	"Violations":     "audit.Checker accessor the sim and rnr tests use across the package boundary",
	"Checks":         "audit.Checker sweep count the sim tests use to prove a run was audited",
	"NewRequest":     "mem.Request constructor the cache, dram, rnr and sim tests build traffic with",
	"TickedCycles":   "sim.System work counter the root benchmarks report and CI pins",
	"WakeEvals":      "sim.System work counter the root benchmarks report and CI pins",
	"Validate":       "graph and sparse input checks the apps tests run on every generated input",
	"PaperMachine":   "root facade: the paper's machine, public library API",
	"ScaledMachine":  "root facade: the bench-scale machine, public library API",
	"NewExperiments": "root facade: the experiment suite, public library API",
	"MarshalJSON":    "called by encoding/json, never by name",
	"Unwrap":         "called by errors.Is and errors.As, never by name",
}

// TestNoTestOnlyExports fails on an exported function or method of the
// module whose name no non-test Go file uses outside its own
// declaration: such a name is reached only from tests (or not at all),
// so it belongs in a _test.go file or nowhere. Identifiers count,
// comments do not; the perfbench module, examples/ and cmd/ count as
// callers.
func TestNoTestOnlyExports(t *testing.T) {
	fset := token.NewFileSet()
	var exported []*ast.Ident     // declared names of exported funcs and methods
	used := make(map[string]bool) // identifiers outside func declarations' names
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		declared := make(map[*ast.Ident]bool)
		for _, dl := range f.Decls {
			if fn, ok := dl.(*ast.FuncDecl); ok {
				declared[fn.Name] = true
				// perfbench is a separate module: a caller, not a subject.
				if fn.Name.IsExported() && !strings.HasPrefix(filepath.ToSlash(path), "perfbench/") {
					exported = append(exported, fn.Name)
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declared[id] {
				used[id.Name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(exported) == 0 {
		t.Fatal("found no exported functions: run from the module root")
	}
	var unused []string
	names := make(map[string]bool)
	for _, id := range exported {
		names[id.Name] = true
		if _, kept := keptExports[id.Name]; !kept && !used[id.Name] {
			unused = append(unused, fset.Position(id.Pos()).String()+": "+id.Name)
		}
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("%s is exported but only tests use it", u)
	}
	for name := range keptExports {
		if !names[name] || used[name] {
			t.Errorf("keptExports lists %s, which is no longer an exported name without a caller", name)
		}
	}
}
