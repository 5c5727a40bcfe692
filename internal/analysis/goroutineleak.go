package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// GoroutineLeak requires every goroutine spawned in internal library code
// to have a visible join or cancellation path. A long-running server that
// leaks one goroutine per query or per Close eventually dies of scheduler
// pressure, and a leaked handler can touch caller state after shutdown.
//
// A `go` statement is accepted when the spawned body (a func literal, or
// the declaration of a same-package function) shows one of:
//
//  1. a (*sync.WaitGroup).Done or .Wait call — the spawner joins it;
//  2. a close(ch) call — it signals a done channel on exit;
//  3. a channel receive (<-ch, including select cases and <-ctx.Done()) —
//     it parks on a cancellation signal instead of running away.
//
// Evidence is also searched one call level deep through same-package
// callees. Spawning a function from another package directly (e.g.
// `go srv.Serve(ln)`) is always flagged: the analyzer cannot see into it,
// so wrap it in a tracked literal. cmd/ and examples/ binaries are exempt,
// as are test files.
var GoroutineLeak = &Analyzer{
	Name: "goroutineleak",
	Doc:  "flag goroutines in library code with no join/cancel path (WaitGroup, done channel, or ctx)",
	Run:  runGoroutineLeak,
}

// leakSearchDepth bounds how many same-package call levels the evidence
// search follows from the spawned body.
const leakSearchDepth = 2

func runGoroutineLeak(pass *Pass) {
	path := pass.Pkg.Path
	if path != libraryPrefix && !strings.HasPrefix(path, libraryPrefix+"/") {
		return
	}
	for _, f := range pass.Pkg.Files {
		if pass.InTestFile(f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			if !spawnHasJoinPath(pass, g.Call) {
				pass.Reportf(g.Pos(),
					"goroutine has no visible join or cancel path; track it with a WaitGroup, close a done channel, or park it on a ctx/channel receive")
			}
			return true
		})
	}
}

// spawnHasJoinPath locates the spawned body and searches it for join
// evidence.
func spawnHasJoinPath(pass *Pass, call *ast.CallExpr) bool {
	seen := map[*ast.FuncDecl]bool{}
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.FuncLit:
		return hasJoinEvidence(pass, fun.Body, leakSearchDepth, seen)
	default:
		if decl := calleeDecl(pass, call); decl != nil && decl.Body != nil {
			seen[decl] = true
			return hasJoinEvidence(pass, decl.Body, leakSearchDepth, seen)
		}
	}
	return false
}

// calleeDecl resolves a call to its same-package declaration, or nil.
func calleeDecl(pass *Pass, call *ast.CallExpr) *ast.FuncDecl {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, ok := pass.Pkg.Info.Uses[id].(*types.Func)
	if !ok {
		return nil
	}
	return pass.FuncDeclOf(fn)
}

// hasJoinEvidence walks body (including nested literals) for a join or
// cancel signal, following same-package calls depth levels deep.
func hasJoinEvidence(pass *Pass, body *ast.BlockStmt, depth int, seen map[*ast.FuncDecl]bool) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				found = true // channel receive: select case, <-done, <-ctx.Done()
			}
		case *ast.CallExpr:
			if isCloseBuiltin(pass, n) || isWaitGroupJoin(pass, n) {
				found = true
				return false
			}
			if depth > 0 {
				if decl := calleeDecl(pass, n); decl != nil && decl.Body != nil && !seen[decl] {
					seen[decl] = true
					if hasJoinEvidence(pass, decl.Body, depth-1, seen) {
						found = true
					}
				}
			}
		}
		return !found
	})
	return found
}

// isCloseBuiltin reports whether call is the builtin close(ch).
func isCloseBuiltin(pass *Pass, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "close" {
		return false
	}
	_, isBuiltin := pass.Pkg.Info.Uses[id].(*types.Builtin)
	return isBuiltin
}

// isWaitGroupJoin reports whether call is (*sync.WaitGroup).Done or .Wait.
func isWaitGroupJoin(pass *Pass, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "Done" && sel.Sel.Name != "Wait") {
		return false
	}
	fn, ok := pass.Pkg.Info.Uses[sel.Sel].(*types.Func)
	return ok && fn.Pkg() != nil && fn.Pkg().Path() == "sync"
}
