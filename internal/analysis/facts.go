package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// Module is the cross-package view of one loaded module: every package
// from a single shared type-checked load plus the facts derived from the
// whole-program function graph. Facts are what let an analyzer running on
// one package reason about properties that originate in another — a
// replay-sensitive root in internal/sim reaching a helper in
// internal/latency, or a //perf:hotpath annotation on a method the caller
// only sees through its import.
//
// A Module is immutable after NewModule and safe for concurrent reads;
// the parallel runner (RunModule) shares one across every (package,
// analyzer) task.
type Module struct {
	// Pkgs is every package of the load, sorted by import path.
	Pkgs []*Package

	replayReachable map[*types.Func]bool
	hotPath         map[*types.Func]bool
}

// ReplayRootNames are the function names treated as replay roots: every
// function statically reachable from a function with one of these names
// carries the "replay-sensitive" fact, in whatever package it lives. The
// repo's roots are sim.RunWorld and sim.StreamWorld — everything a
// figure is computed from flows through them — plus the distributed
// pipeline's two halves: sim.StreamShard (the worker's shard stream) and
// experiments.MergeShardDay (the coordinator's fold), which must replay
// byte-identically for the fleet merge to equal the single-process run.
var ReplayRootNames = []string{"RunWorld", "StreamWorld", "StreamShard", "MergeShardDay"}

// NewModule derives the cross-package facts for pkgs: the static call
// graph (direct calls and method calls resolved through go/types; calls
// through interface values or stored function values are not followed —
// a deliberate static approximation), replay reachability from the
// ReplayRootNames roots, and //perf:hotpath annotations.
func NewModule(pkgs []*Package) *Module {
	m := &Module{
		Pkgs:            pkgs,
		replayReachable: map[*types.Func]bool{},
		hotPath:         map[*types.Func]bool{},
	}
	calls := map[*types.Func][]*types.Func{}
	var queue []*types.Func
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				if hasDirective(fd.Doc, "//perf:hotpath") {
					m.hotPath[obj] = true
				}
				if isReplayRootName(obj.Name()) {
					m.replayReachable[obj] = true
					queue = append(queue, obj)
				}
				// Call edges: every call lexically inside a declaration
				// (including inside its func literals) is attributed to
				// that declaration.
				ast.Inspect(fd, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					if callee := calleeFunc(pkg.Info, call); callee != nil {
						calls[obj] = append(calls[obj], callee)
					}
					return true
				})
			}
		}
	}
	// Replay reachability: BFS from every function named like a root.
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		for _, callee := range calls[fn] {
			if m.replayReachable[callee] {
				continue
			}
			m.replayReachable[callee] = true
			queue = append(queue, callee)
		}
	}
	return m
}

// ReplayReachable reports the "replay-sensitive" fact: fn is statically
// reachable from a RunWorld/StreamWorld root (possibly across packages).
func (m *Module) ReplayReachable(fn *types.Func) bool { return m.replayReachable[fn] }

// HotPath reports the "annotated hot-path" fact: fn's declaration carries
// a //perf:hotpath directive.
func (m *Module) HotPath(fn *types.Func) bool { return m.hotPath[fn] }

func isReplayRootName(name string) bool {
	for _, r := range ReplayRootNames {
		if name == r {
			return true
		}
	}
	return false
}

// calleeFunc resolves the function object a call expression invokes:
// plain calls, package-qualified calls, and method calls. Calls through
// function-typed values (fields, parameters) and type conversions
// resolve to nil.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		f, _ := info.Uses[fun].(*types.Func)
		return f
	case *ast.SelectorExpr:
		f, _ := info.Uses[fun.Sel].(*types.Func)
		return f
	}
	return nil
}

// hasDirective reports whether a doc comment group contains the given
// machine directive (an exact "//directive" line, no leading space — the
// form gofmt preserves and godoc hides).
func hasDirective(doc *ast.CommentGroup, directive string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if c.Text == directive || strings.HasPrefix(c.Text, directive+" ") {
			return true
		}
	}
	return false
}
