package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// ReplaySensitive lists the packages (and their subpackages) where map
// iteration order must not leak into output: the simulation core, the
// experiment harness, the measurement log, the fault engine, the
// prediction pipeline, and the statistics kernels. Everything a figure's
// bytes flow through.
var ReplaySensitive = []string{
	"anycastcdn/internal/sim",
	"anycastcdn/internal/experiments",
	"anycastcdn/internal/logs",
	"anycastcdn/internal/faults",
	"anycastcdn/internal/core",
	"anycastcdn/internal/stats",
	"anycastcdn/internal/distsim",
}

// RestrictedDeterminism lists the packages (and their subpackages) that
// may not read the wall clock or the global math/rand source anywhere
// outside tests, reachable from a replay root or not: the simulation
// core, the prediction pipeline, the experiment harness, and the client
// population model. Everything the paper's figures are computed from
// flows through these. The list is narrower than ReplaySensitive on
// purpose: internal/distsim reads the clock for its stall deadlines.
var RestrictedDeterminism = []string{
	"anycastcdn/internal/sim",
	"anycastcdn/internal/core",
	"anycastcdn/internal/experiments",
	"anycastcdn/internal/clients",
}

// randConstructors are the math/rand names that build explicitly seeded
// generators and are therefore replay-safe.
var randConstructors = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewZipf":    true,
	"NewPCG":     true, // math/rand/v2
	"NewChaCha8": true,
}

// commutativeDirective justifies an order-dependent-looking map
// iteration whose accumulation is in fact order-independent. A reason is
// mandatory, on the range statement's line or the line above:
//
//	//replay:commutative <reason>
const commutativeDirective = "//replay:commutative"

// ReplaySafety enforces byte-identical replay mechanically, three ways.
//
// In the ReplaySensitive packages it flags `range` over a map whose body
// accumulates into state declared outside the loop — appends, non-exact
// compound assignment (float/string/complex accumulation, where
// evaluation order changes the bytes), or channel sends. Iterate sorted
// keys instead, or justify with //replay:commutative. Integer
// accumulation is exact and order-independent, so it is exempt.
//
// It forbids time.Now() calls and the global math/rand functions in two
// scopes: every non-test file of the RestrictedDeterminism packages,
// package-level initializers included, and every function reachable
// from a replay root, in whatever package it lives. All randomness must
// come from injected xrand substreams and all timestamps from an
// injected clock, so a rerun with the same seed replays exactly.
//
// Module-wide, every function statically reachable from a replay root
// must also not write to package-level maps (shared mutable state the
// parallel schedule could interleave differently between runs).
var ReplaySafety = &Analyzer{
	Name: "replaysafety",
	Doc:  "forbid order-dependent map iteration, wall clocks and global math/rand in replay-critical code, and package-level map writes reachable from a replay root",
	Run:  runReplaySafety,
}

func runReplaySafety(pass *Pass) {
	commutative := collectCommutative(pass)
	sensitive := pathInList(pass.Pkg.Path, ReplaySensitive)
	clockFree := pathInList(pass.Pkg.Path, RestrictedDeterminism)
	for _, f := range pass.Pkg.Files {
		if pass.InTestFile(f.Pos()) {
			continue
		}
		if sensitive {
			checkMapRanges(pass, f, commutative)
		}
		if clockFree {
			ast.Inspect(f, func(n ast.Node) bool {
				if what, fix := clockOrGlobalRand(pass, n); what != "" {
					pass.Reportf(n.Pos(), "%s breaks experiment replay; %s", what, fix)
				}
				return true
			})
		}
		checkReplayReachable(pass, f, !clockFree)
	}
}

// collectCommutative gathers //replay:commutative directives per file
// line, reporting directives with no reason (the justification is the
// point of the escape hatch).
func collectCommutative(pass *Pass) map[ignoreKey]bool {
	out := map[ignoreKey]bool{}
	for _, f := range pass.Pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, commutativeDirective)
				if !ok {
					continue
				}
				pos := pass.Pkg.Fset.Position(c.Pos())
				if strings.TrimSpace(rest) == "" {
					pass.report(Diagnostic{
						File:    pos.Filename,
						Line:    pos.Line,
						Col:     pos.Column,
						Check:   pass.Analyzer.Name,
						Message: "//replay:commutative needs a reason: why is this accumulation order-independent?",
					})
					continue
				}
				out[ignoreKey{file: pos.Filename, line: pos.Line}] = true
			}
		}
	}
	return out
}

// checkMapRanges flags map-range loops whose bodies accumulate
// order-dependently into outer state.
func checkMapRanges(pass *Pass, f *ast.File, commutative map[ignoreKey]bool) {
	info := pass.Pkg.Info
	ast.Inspect(f, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		tv, ok := info.Types[rng.X]
		if !ok || tv.Type == nil {
			return true
		}
		if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
			return true
		}
		pos := pass.Pkg.Fset.Position(rng.Pos())
		if commutative[ignoreKey{file: pos.Filename, line: pos.Line}] ||
			commutative[ignoreKey{file: pos.Filename, line: pos.Line - 1}] {
			return true
		}
		reportMapRangeBody(pass, rng)
		return true
	})
}

// reportMapRangeBody reports each order-dependent accumulation inside one
// map-range body.
func reportMapRangeBody(pass *Pass, rng *ast.RangeStmt) {
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SendStmt:
			pass.Reportf(n.Pos(),
				"channel send inside map iteration delivers in random key order; iterate sorted keys or justify with %s", commutativeDirective)
		case *ast.AssignStmt:
			checkMapRangeAssign(pass, rng, n)
		}
		return true
	})
}

func checkMapRangeAssign(pass *Pass, rng *ast.RangeStmt, assign *ast.AssignStmt) {
	for i, lhs := range assign.Lhs {
		lhs = ast.Unparen(lhs)
		root := rootIdent(lhs)
		if root == nil {
			continue
		}
		obj := pass.Pkg.Info.ObjectOf(root)
		if obj == nil || !declaredOutside(obj, rng) {
			continue
		}
		// x = append(x, ...): element order follows key order.
		if assign.Tok == token.ASSIGN && lhs == root && i < len(assign.Rhs) && isAppendCall(pass.Pkg.Info, assign.Rhs[i]) {
			pass.Reportf(assign.Pos(),
				"append to %s inside map iteration records elements in random key order; iterate sorted keys or justify with %s", root.Name, commutativeDirective)
			continue
		}
		// Compound accumulation — into a variable, a map or slice element,
		// or a field — whose result depends on evaluation order: float and
		// complex addition are not associative, string append is ordered.
		// Integer ops are exact and commute.
		if t := pass.Pkg.Info.TypeOf(lhs); assign.Tok != token.ASSIGN && assign.Tok != token.DEFINE && t != nil && !exactCommutativeType(t) {
			pass.Reportf(assign.Pos(),
				"%s accumulation into %s inside map iteration is order-dependent for %s; iterate sorted keys or justify with %s",
				assign.Tok, types.ExprString(lhs), t, commutativeDirective)
		}
	}
}

// rootIdent walks an assignment target such as m[k], s.f or s.m[k].f
// down to the identifier it is rooted at, or returns nil.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return x
		case *ast.IndexExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// declaredOutside reports whether obj's declaration lies outside the
// range statement (so writes to it survive the loop).
func declaredOutside(obj types.Object, rng *ast.RangeStmt) bool {
	return obj.Pos() < rng.Pos() || obj.Pos() >= rng.End()
}

// exactCommutativeType reports whether compound accumulation into t is
// order-independent: integer addition/multiplication and bit ops are
// exact, so any iteration order produces identical bytes.
func exactCommutativeType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	if !ok {
		return false
	}
	return b.Info()&(types.IsInteger|types.IsBoolean) != 0
}

func isAppendCall(info *types.Info, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "append"
}

// clockOrGlobalRand matches the two sources of run-to-run
// nondeterminism: a time.Now() call and any use of a global math/rand
// function (seeded constructors and the rand types are fine). It returns
// what n is and how to fix it, or "" when n is neither.
func clockOrGlobalRand(pass *Pass, n ast.Node) (what, fix string) {
	switch n := n.(type) {
	case *ast.CallExpr:
		if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
			if pn := pass.PkgNameOf(sel); pn != nil && pn.Imported().Path() == "time" && sel.Sel.Name == "Now" {
				return "time.Now()", "inject a clock (a now func() time.Time field or parameter)"
			}
		}
	case *ast.SelectorExpr:
		pn := pass.PkgNameOf(n)
		if pn == nil {
			return "", ""
		}
		p := pn.Imported().Path()
		if p != "math/rand" && p != "math/rand/v2" {
			return "", ""
		}
		if _, isFunc := pass.Pkg.Info.Uses[n.Sel].(*types.Func); isFunc && !randConstructors[n.Sel.Name] {
			return "global " + p + "." + n.Sel.Name, "use an injected xrand substream"
		}
	}
	return "", ""
}

// checkReplayReachable walks every function in f that carries the
// replay-sensitive fact (statically reachable from a replay root,
// possibly across package boundaries) and flags writes to package-level
// maps, plus wall-clock reads and global randomness when clocks is set
// (a RestrictedDeterminism package has had its whole file checked for
// those already).
func checkReplayReachable(pass *Pass, f *ast.File, clocks bool) {
	if pass.Mod == nil {
		return
	}
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		obj, ok := pass.Pkg.Info.Defs[fd.Name].(*types.Func)
		if !ok || !pass.Mod.ReplayReachable(obj) {
			continue
		}
		checkReachableBody(pass, fd, clocks)
	}
}

func checkReachableBody(pass *Pass, fd *ast.FuncDecl, clocks bool) {
	info := pass.Pkg.Info
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if clocks {
			if what, fix := clockOrGlobalRand(pass, n); what != "" {
				pass.Reportf(n.Pos(), "%s in %s is reachable from a replay root; %s", what, fd.Name.Name, fix)
			}
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok {
				if b, ok := info.Uses[id].(*types.Builtin); ok && (b.Name() == "delete" || b.Name() == "clear") && len(n.Args) > 0 {
					if v := packageLevelMap(info, n.Args[0]); v != nil {
						pass.Reportf(n.Pos(),
							"%s of package-level map %s in %s, which is reachable from a replay root; replay-sensitive state must be run-local", b.Name(), v.Name(), fd.Name.Name)
					}
				}
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				idx, ok := ast.Unparen(lhs).(*ast.IndexExpr)
				if !ok {
					continue
				}
				if v := packageLevelMap(info, idx.X); v != nil {
					pass.Reportf(lhs.Pos(),
						"write to package-level map %s in %s, which is reachable from a replay root; replay-sensitive state must be run-local", v.Name(), fd.Name.Name)
				}
			}
		}
		return true
	})
}

// packageLevelMap resolves e to a package-level map variable, or nil.
func packageLevelMap(info *types.Info, e ast.Expr) *types.Var {
	var obj types.Object
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj = info.ObjectOf(x)
	case *ast.SelectorExpr:
		obj = info.ObjectOf(x.Sel)
	default:
		return nil
	}
	v, ok := obj.(*types.Var)
	if !ok || v.Pkg() == nil || v.Parent() != v.Pkg().Scope() {
		return nil
	}
	if _, isMap := v.Type().Underlying().(*types.Map); !isMap {
		return nil
	}
	return v
}
