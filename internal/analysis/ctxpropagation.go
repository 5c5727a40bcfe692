package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// RestrictedCtxPropagation lists the packages whose network code must
// honor caller contexts: the distributed-simulation layer holds socket
// pairs to a worker fleet, where an I/O wait that ignores cancellation
// strands the whole run.
var RestrictedCtxPropagation = []string{
	"anycastcdn/internal/distsim",
}

// CtxPropagation enforces the distsim ctx contract: a function that takes
// a context.Context and performs blocking net I/O (conn.Read/ReadFrom/
// Write/WriteTo) must consult that ctx — reference ctx.Done(),
// ctx.Deadline(), or ctx.Err() directly, or hand the ctx to a
// same-package helper that does (e.g. a cancellation watcher that yanks
// the conn deadline). Separately, ctx-less dialing (net.Dial and
// friends) is flagged anywhere in the restricted packages: use
// net.Dialer.DialContext so the caller's ctx bounds connection setup.
var CtxPropagation = &Analyzer{
	Name: "ctxpropagation",
	Doc:  "blocking net I/O in distsim must derive deadlines and cancellation from the caller's ctx",
	Run:  runCtxPropagation,
}

// blockingNetIO are the net-package methods treated as blocking I/O.
var blockingNetIO = map[string]bool{
	"Read":        true,
	"ReadFrom":    true,
	"ReadFromUDP": true,
	"ReadMsgUDP":  true,
	"Write":       true,
	"WriteTo":     true,
}

// ctxlessDials are the package-level net dialers that cannot carry a ctx.
var ctxlessDials = map[string]bool{
	"Dial":        true,
	"DialTimeout": true,
	"DialUDP":     true,
	"DialTCP":     true,
	"DialIP":      true,
}

// ctxEvidenceDepth bounds how many same-package call levels the evidence
// search follows.
const ctxEvidenceDepth = 2

func runCtxPropagation(pass *Pass) {
	if !pathInList(pass.Pkg.Path, RestrictedCtxPropagation) {
		return
	}
	for _, f := range pass.Pkg.Files {
		if pass.InTestFile(f.Pos()) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkCtxlessDials(pass, fd.Body)
			if !funcTakesContext(pass, fd) {
				continue
			}
			blocking := blockingNetCalls(pass, fd.Body)
			if len(blocking) == 0 {
				continue
			}
			if ctxConsulted(pass, fd.Body, ctxEvidenceDepth, map[*ast.FuncDecl]bool{fd: true}) {
				continue
			}
			for _, call := range blocking {
				pass.Reportf(call.Pos(),
					"blocking net call ignores the caller's ctx; derive the conn deadline from ctx.Deadline and watch ctx.Done for cancellation")
			}
		}
	}
}

// checkCtxlessDials flags net.Dial-family calls, which cannot honor a ctx.
func checkCtxlessDials(pass *Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || !ctxlessDials[sel.Sel.Name] {
			return true
		}
		if pn := pass.PkgNameOf(sel); pn != nil && pn.Imported().Path() == "net" {
			pass.Reportf(call.Pos(),
				"net.%s cannot carry the caller's ctx; use net.Dialer.DialContext", sel.Sel.Name)
		}
		return true
	})
}

// funcTakesContext reports whether fd has a context.Context parameter.
func funcTakesContext(pass *Pass, fd *ast.FuncDecl) bool {
	for _, field := range fd.Type.Params.List {
		if isContextType(pass.Pkg.Info.TypeOf(field.Type)) {
			return true
		}
	}
	return false
}

// blockingNetCalls collects calls to blocking net-package I/O methods.
func blockingNetCalls(pass *Pass, body *ast.BlockStmt) []*ast.CallExpr {
	var out []*ast.CallExpr
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || !blockingNetIO[sel.Sel.Name] {
			return true
		}
		fn, ok := pass.Pkg.Info.Uses[sel.Sel].(*types.Func)
		if ok && fn.Pkg() != nil && fn.Pkg().Path() == "net" {
			out = append(out, call)
		}
		return true
	})
	return out
}

// ctxConsulted searches body (including nested literals) for a reference
// to Done/Deadline/Err on a context value, following ctx-carrying calls
// into same-package declarations depth levels deep.
func ctxConsulted(pass *Pass, body *ast.BlockStmt, depth int, seen map[*ast.FuncDecl]bool) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.SelectorExpr:
			switch n.Sel.Name {
			case "Done", "Deadline", "Err":
				if isContextType(pass.Pkg.Info.TypeOf(n.X)) {
					found = true
					return false
				}
			}
		case *ast.CallExpr:
			if depth == 0 {
				return true
			}
			// Only follow calls that actually carry a ctx argument.
			carries := false
			for _, arg := range n.Args {
				if isContextType(pass.Pkg.Info.TypeOf(arg)) {
					carries = true
					break
				}
			}
			if !carries {
				return true
			}
			if decl := calleeDecl(pass, n); decl != nil && decl.Body != nil && !seen[decl] {
				seen[decl] = true
				if ctxConsulted(pass, decl.Body, depth-1, seen) {
					found = true
				}
			}
		}
		return !found
	})
	return found
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// pathInList reports whether path equals or is nested below one of the
// listed import paths.
func pathInList(path string, list []string) bool {
	for _, p := range list {
		if path == p || strings.HasPrefix(path, p+"/") {
			return true
		}
	}
	return false
}
