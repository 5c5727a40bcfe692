package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// UnitSafety enforces the dimensional-safety contract of internal/units:
// latency is units.Millis, distance is units.Kilometers, and bare float64
// never carries either dimension across an exported API.
//
// Two rules:
//
//  1. naming — an exported struct field, or a parameter/result of an
//     exported function, whose name reads as a unit-bearing quantity
//     (suffix "Ms"/"Km", or containing "RTT", "Latency", "Distance") must
//     not be typed bare float64 (or []float64) outside internal/units.
//     Names containing "Per" are rates (e.g. FiberKmPerMs) and exempt:
//     a rate deliberately mixes dimensions and stays float64.
//  2. mixing — a conversion from one unit type directly to the other
//     (units.Millis(k) where k is units.Kilometers, or vice versa) is
//     flagged: the only sanctioned route between dimensions is through
//     Float() and an explicit rate or factor. Direct arithmetic mixing
//     the two types is already a compile error, so conversions are the
//     one type-correct way to smuggle a km value into a ms slot.
var UnitSafety = &Analyzer{
	Name: "unitsafety",
	Doc:  "flag bare-float64 unit-named identifiers and Millis<->Kilometers conversions",
	Run:  runUnitSafety,
}

func runUnitSafety(pass *Pass) {
	// internal/units is where the dimension types live; its own helpers
	// (Float, Floats, FromFloats) legitimately traffic in bare float64.
	inUnits := strings.HasSuffix(pass.Pkg.Path, "internal/units")
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.StructType:
				if inUnits || pass.InTestFile(n.Pos()) {
					return true
				}
				for _, field := range n.Fields.List {
					for _, name := range field.Names {
						if !name.IsExported() {
							continue
						}
						hint := unitHint(name.Name)
						if hint == "" {
							continue
						}
						if isBareFloat64(pass.Pkg.Info.TypeOf(field.Type)) {
							pass.Reportf(name.Pos(),
								"exported field %s reads as a %s quantity but is bare float64; type it units.%s", name.Name, hintWord(hint), hint)
						}
					}
				}
			case *ast.FuncDecl:
				if inUnits || pass.InTestFile(n.Pos()) || !n.Name.IsExported() {
					return true
				}
				checkUnitSignature(pass, n)
			case *ast.CallExpr:
				checkUnitConversion(pass, n)
			}
			return true
		})
	}
}

// checkUnitSignature applies the naming rule to an exported function's
// parameters, named results, and — when the function name itself carries
// the unit — its result types.
func checkUnitSignature(pass *Pass, fd *ast.FuncDecl) {
	for _, fl := range []*ast.FieldList{fd.Type.Params, fd.Type.Results} {
		if fl == nil {
			continue
		}
		for _, field := range fl.List {
			for _, name := range field.Names {
				hint := unitHint(name.Name)
				if hint == "" {
					continue
				}
				if isBareFloat64(pass.Pkg.Info.TypeOf(field.Type)) {
					pass.Reportf(name.Pos(),
						"%s of exported %s reads as a %s quantity but is bare float64; type it units.%s", name.Name, fd.Name.Name, hintWord(hint), hint)
				}
			}
		}
	}
	// A function named for the unit it returns (BaseRTTms, IGPDistanceKm)
	// with unnamed bare-float64 results escapes the field check above.
	if hint := unitHint(fd.Name.Name); hint != "" && fd.Type.Results != nil {
		for _, field := range fd.Type.Results.List {
			if len(field.Names) > 0 {
				continue // named results were checked above
			}
			if isBareFloat64(pass.Pkg.Info.TypeOf(field.Type)) {
				pass.Reportf(field.Type.Pos(),
					"exported %s is named for a %s quantity but returns bare float64; return units.%s", fd.Name.Name, hintWord(hint), hint)
			}
		}
	}
}

// checkUnitConversion flags T2(x) where T2 and the type of x are the two
// distinct unit types. units.Millis(k.Float()) is fine: the argument is
// float64 by the time it reaches the conversion.
func checkUnitConversion(pass *Pass, call *ast.CallExpr) {
	if len(call.Args) != 1 {
		return
	}
	tv, ok := pass.Pkg.Info.Types[call.Fun]
	if !ok || !tv.IsType() {
		return
	}
	dst := unitTypeName(tv.Type)
	if dst == "" {
		return
	}
	src := unitTypeName(pass.Pkg.Info.TypeOf(call.Args[0]))
	if src != "" && src != dst {
		pass.Reportf(call.Pos(),
			"conversion units.%s(...) takes a units.%s; dimensions do not convert — unwrap with Float() and apply an explicit rate", dst, src)
	}
}

// unitHint classifies an identifier name: "Millis", "Kilometers", or ""
// when the name carries no dimension. Names containing "Per" are rates
// and never flagged.
func unitHint(name string) string {
	if strings.Contains(name, "Per") {
		return ""
	}
	switch {
	case strings.Contains(name, "RTT"), strings.Contains(name, "Latency"), hasUnitSuffix(name, "Ms"):
		return "Millis"
	case strings.Contains(name, "Distance"), hasUnitSuffix(name, "Km"):
		return "Kilometers"
	}
	return ""
}

func hintWord(hint string) string {
	if hint == "Millis" {
		return "latency (ms)"
	}
	return "distance (km)"
}

// hasUnitSuffix reports whether name ends in the given two-letter unit
// suffix ("Ms"/"Km"), accepting the lowercase form only after an
// uppercase letter or digit ("RTTms" yes, "Params" no).
func hasUnitSuffix(name, suffix string) bool {
	if strings.HasSuffix(name, suffix) {
		return true
	}
	if !strings.HasSuffix(name, strings.ToLower(suffix)) {
		return false
	}
	rest := name[:len(name)-len(suffix)]
	if rest == "" {
		return false
	}
	c := rest[len(rest)-1]
	return (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
}

// isBareFloat64 reports whether t is the literal float64 type or a slice
// of it — not a defined type over float64, which is exactly what the rule
// asks callers to use instead.
func isBareFloat64(t types.Type) bool {
	if s, ok := t.(*types.Slice); ok {
		t = s.Elem()
	}
	b, ok := t.(*types.Basic)
	return ok && b.Kind() == types.Float64
}

// unitTypeName returns "Millis" or "Kilometers" when t is one of the
// dimension types from internal/units, else "".
func unitTypeName(t types.Type) string {
	n, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	obj := n.Obj()
	if obj.Pkg() == nil || !strings.HasSuffix(obj.Pkg().Path(), "internal/units") {
		return ""
	}
	if obj.Name() == "Millis" || obj.Name() == "Kilometers" {
		return obj.Name()
	}
	return ""
}
