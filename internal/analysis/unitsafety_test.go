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

// unitsFixtureSrc is a minimal stand-in for internal/units so conversion
// fixtures can import it without touching the real module.
const unitsFixtureSrc = `package units

type Millis float64
type Kilometers float64

func (m Millis) Float() float64     { return float64(m) }
func (k Kilometers) Float() float64 { return float64(k) }
`

// checkUnitsFixture mirrors checkFixture but type-checks a fake
// anycastcdn/internal/units package first and serves it to the fixture's
// imports the way LoadModule's moduleImporter serves module-internal
// packages.
func checkUnitsFixture(t *testing.T, path string, files map[string]string) []string {
	t.Helper()
	fset := token.NewFileSet()
	uf, err := parser.ParseFile(fset, "units.go", unitsFixtureSrc, parser.ParseComments)
	if err != nil {
		t.Fatalf("parsing units fixture: %v", err)
	}
	imp := &moduleImporter{
		std:  importer.ForCompiler(fset, "gc", nil),
		pkgs: map[string]*types.Package{},
	}
	conf := types.Config{Importer: imp}
	upkg, err := conf.Check("anycastcdn/internal/units", fset, []*ast.File{uf}, nil)
	if err != nil {
		t.Fatalf("type-checking units fixture: %v", err)
	}
	imp.pkgs["anycastcdn/internal/units"] = upkg

	var names []string
	for name := range files {
		names = append(names, name)
	}
	sort.Strings(names)
	var astFiles []*ast.File
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
	tpkg, err := conf.Check(path, fset, astFiles, info)
	if err != nil {
		t.Fatalf("type-checking fixture: %v", err)
	}
	pkg := &Package{Path: path, Dir: ".", Fset: fset, Files: astFiles, Types: tpkg, Info: info}
	pkgs := []*Package{pkg}
	diags, _ := RunModule(NewModule(pkgs), pkgs, []*Analyzer{UnitSafety})
	var out []string
	for _, d := range diags {
		out = append(out, fmt.Sprintf("%s:%d:%s", d.File, d.Line, d.Check))
	}
	return out
}

// TestUnitSafetyNaming seeds the canonical violation from the issue — a
// bare `float64 RTTMs` struct field — alongside the documented
// exemptions: "Per"-rates, unexported names, non-float64 types.
func TestUnitSafetyNaming(t *testing.T) {
	got := checkFixture(t, UnitSafety, "anycastcdn/internal/fix", map[string]string{
		"fix.go": `package fix

type Sample struct {
	RTTMs        float64
	AirKm        float64
	Latency      float64
	DistancesKm  []float64
	FiberKmPerMs float64
	Count        int
	rttMs        float64
	Alarms       float64
}

func Measure(marginMs float64, n int) (distKm float64) {
	_ = n
	return marginMs
}

func BaseRTTms(x int) float64 { return float64(x) }

func helper(rttMs float64) float64 { return rttMs }
`,
	})
	wantDiags(t, got, []string{
		"fix.go:4:unitsafety",  // RTTMs
		"fix.go:5:unitsafety",  // AirKm
		"fix.go:6:unitsafety",  // Latency
		"fix.go:7:unitsafety",  // DistancesKm
		"fix.go:14:unitsafety", // marginMs param and distKm result
		"fix.go:19:unitsafety", // BaseRTTms returning bare float64
	})
}

// TestUnitSafetyExemptsUnitsPackage checks the naming rule is silent
// inside internal/units itself, whose helpers legitimately take float64.
func TestUnitSafetyExemptsUnitsPackage(t *testing.T) {
	got := checkFixture(t, UnitSafety, "anycastcdn/internal/units", map[string]string{
		"units.go": `package units

type Shim struct {
	RTTMs float64
}

func FromMs(rttMs float64) float64 { return rttMs }
`,
	})
	wantDiags(t, got, nil)
}

// TestUnitSafetyConversions seeds cross-dimension conversions in both
// directions and checks the sanctioned Float() route stays clean.
func TestUnitSafetyConversions(t *testing.T) {
	got := checkUnitsFixture(t, "anycastcdn/internal/fix", map[string]string{
		"fix.go": `package fix

import "anycastcdn/internal/units"

func Bad(k units.Kilometers) units.Millis {
	return units.Millis(k)
}

func BadBack(m units.Millis) units.Kilometers {
	return units.Kilometers(m)
}

func Good(k units.Kilometers) units.Millis {
	return units.Millis(k.Float() / 200.0)
}

func Wrap(x float64) units.Kilometers {
	return units.Kilometers(x)
}

func Same(k units.Kilometers) units.Kilometers {
	return units.Kilometers(k)
}
`,
	})
	wantDiags(t, got, []string{
		"fix.go:6:unitsafety",  // Millis(Kilometers)
		"fix.go:10:unitsafety", // Kilometers(Millis)
	})
}
