package analysis

import (
	"go/ast"
	"go/types"
)

// MutexHygiene enforces lock/unlock pairing: a function that calls
// mu.Lock() (or RLock) must contain at least one matching mu.Unlock() (or
// RUnlock), direct or deferred, on the same receiver expression. Lock
// copies are go vet's copylocks check, which ci.sh runs.
var MutexHygiene = &Analyzer{
	Name: "mutexhygiene",
	Doc:  "flag Lock() calls with no same-function Unlock",
	Run:  runMutexHygiene,
}

func runMutexHygiene(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				checkLockBalance(pass, fd.Body)
			}
		}
	}
}

// lockPairs maps an acquire method to its release.
var lockPairs = map[string]string{
	"Lock":  "Unlock",
	"RLock": "RUnlock",
}

// checkLockBalance verifies that every receiver locked in body is also
// unlocked somewhere in body (conditional early-unlock branches and
// deferred closures all count — the repo's Close() guards unlock on both
// paths, which a stricter pairing would false-positive on).
func checkLockBalance(pass *Pass, body *ast.BlockStmt) {
	type pairKey struct {
		recv    string // receiver expression text, e.g. "tb.mu"
		release string // "Unlock" or "RUnlock"
	}
	firstAcquire := map[pairKey]*ast.CallExpr{}
	released := map[pairKey]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		fn, ok := pass.Pkg.Info.Uses[sel.Sel].(*types.Func)
		if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
			return true
		}
		recv := types.ExprString(sel.X)
		name := sel.Sel.Name
		if release, isAcquire := lockPairs[name]; isAcquire {
			key := pairKey{recv, release}
			if firstAcquire[key] == nil {
				firstAcquire[key] = call
			}
		} else if name == "Unlock" || name == "RUnlock" {
			released[pairKey{recv, name}] = true
		}
		return true
	})
	for key, call := range firstAcquire {
		if !released[key] {
			pass.Reportf(call.Pos(),
				"%s is locked but never unlocked in this function; add %s.%s() or defer it", key.recv, key.recv, key.release)
		}
	}
}
