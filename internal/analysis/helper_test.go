package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"sort"
	"testing"
)

// checkFixture parses and type-checks an in-memory package (stdlib
// imports only), runs one analyzer plus suppression handling, and returns
// the diagnostics as "file.go:line:check" strings for table-driven
// comparison.
func checkFixture(t *testing.T, an *Analyzer, path string, files map[string]string) []string {
	t.Helper()
	fset := token.NewFileSet()
	var astFiles []*ast.File
	var names []string
	for name := range files {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f, err := parser.ParseFile(fset, name, files[name], parser.ParseComments)
		if err != nil {
			t.Fatalf("parsing fixture %s: %v", name, err)
		}
		astFiles = append(astFiles, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: importer.ForCompiler(fset, "gc", nil)}
	tpkg, err := conf.Check(path, fset, astFiles, info)
	if err != nil {
		t.Fatalf("type-checking fixture: %v", err)
	}
	pkg := &Package{Path: path, Dir: ".", Fset: fset, Files: astFiles, Types: tpkg, Info: info}
	pkgs := []*Package{pkg}
	diags, _ := RunModule(NewModule(pkgs), pkgs, []*Analyzer{an})
	var out []string
	for _, d := range diags {
		out = append(out, fmt.Sprintf("%s:%d:%s", d.File, d.Line, d.Check))
	}
	return out
}

// checkModuleFixture builds several in-memory packages into one Module
// (so cross-package facts propagate) and runs one analyzer over all of
// them. pkgs maps import path → (file name → source); packages are
// type-checked in sorted path order, and imports between fixture
// packages resolve to the already-checked results — list dependencies
// under paths that sort first.
func checkModuleFixture(t *testing.T, an *Analyzer, pkgs map[string]map[string]string) []string {
	t.Helper()
	loaded := loadFixtureModule(t, pkgs)
	diags, _ := RunModule(NewModule(loaded), loaded, []*Analyzer{an})
	var out []string
	for _, d := range diags {
		out = append(out, fmt.Sprintf("%s:%d:%s", d.File, d.Line, d.Check))
	}
	return out
}

// loadFixtureModule parses and type-checks the in-memory packages of a
// multi-package fixture, in sorted path order.
func loadFixtureModule(t *testing.T, pkgs map[string]map[string]string) []*Package {
	t.Helper()
	fset := token.NewFileSet()
	var paths []string
	for p := range pkgs {
		paths = append(paths, p)
	}
	sort.Strings(paths)

	std := importer.ForCompiler(fset, "gc", nil)
	checked := map[string]*types.Package{}
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p, ok := checked[path]; ok {
			return p, nil
		}
		return std.Import(path)
	})

	var loaded []*Package
	for _, path := range paths {
		var astFiles []*ast.File
		var names []string
		for name := range pkgs[path] {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			f, err := parser.ParseFile(fset, name, pkgs[path][name], parser.ParseComments)
			if err != nil {
				t.Fatalf("parsing fixture %s: %v", name, err)
			}
			astFiles = append(astFiles, f)
		}
		info := &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}
		conf := types.Config{Importer: imp}
		tpkg, err := conf.Check(path, fset, astFiles, info)
		if err != nil {
			t.Fatalf("type-checking fixture %s: %v", path, err)
		}
		checked[path] = tpkg
		loaded = append(loaded, &Package{Path: path, Dir: path, Fset: fset, Files: astFiles, Types: tpkg, Info: info})
	}
	return loaded
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// wantDiags compares got (from checkFixture) against want, reporting both
// directions of mismatch.
func wantDiags(t *testing.T, got, want []string) {
	t.Helper()
	gotSet := map[string]bool{}
	for _, g := range got {
		gotSet[g] = true
	}
	wantSet := map[string]bool{}
	for _, w := range want {
		wantSet[w] = true
	}
	for _, w := range want {
		if !gotSet[w] {
			t.Errorf("missing diagnostic %s (got %v)", w, got)
		}
	}
	for _, g := range got {
		if !wantSet[g] {
			t.Errorf("unexpected diagnostic %s (want %v)", g, want)
		}
	}
}
