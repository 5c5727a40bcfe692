package analysis

import (
	"go/ast"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// ignoreKey locates one //lint:ignore directive.
type ignoreKey struct {
	file string
	line int
}

// collectIgnores adds a package's //lint:ignore directives to out. A
// directive suppresses matching diagnostics on its own line (trailing
// comment) and on the statement directly below it — including every
// continuation line when that statement spans several (see
// stmtExtents). Malformed directives — a missing check name or a missing
// justification — are themselves reported as "lint" diagnostics, so the
// escape hatch cannot silently rot.
func collectIgnores(pkg *Package, out map[ignoreKey]map[string]bool, report func(Diagnostic)) {
	extents := stmtExtents(pkg)
	cover := func(file string, line int, check string) {
		key := ignoreKey{file: file, line: line}
		if out[key] == nil {
			out[key] = map[string]bool{}
		}
		out[key][check] = true
	}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, "//lint:ignore")
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				fields := strings.Fields(rest)
				if len(fields) < 2 {
					report(Diagnostic{
						File:    pos.Filename,
						Line:    pos.Line,
						Col:     pos.Column,
						Check:   "lint",
						Message: "malformed //lint:ignore: want \"//lint:ignore <check> <reason>\"",
					})
					continue
				}
				check := fields[0]
				// The directive's own line (trailing comment) and the line
				// below it (comment above the statement) are covered, each
				// extended to the end of any multi-line statement starting
				// there.
				for _, start := range []int{pos.Line, pos.Line + 1} {
					end := start
					if e, ok := extents[pos.Filename][start]; ok && e > end {
						end = e
					}
					for line := start; line <= end; line++ {
						cover(pos.Filename, line, check)
					}
				}
			}
		}
	}
}

// stmtExtents maps, per file, the starting line of each statement or
// declaration to the last line it spans. A //lint:ignore above a
// multi-line call or declaration must suppress diagnostics reported on
// its continuation lines, not just its first.
func stmtExtents(pkg *Package) map[string]map[int]int {
	out := map[string]map[int]int{}
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n.(type) {
			case ast.Stmt, ast.Decl, *ast.Field:
			default:
				return true
			}
			start := pkg.Fset.Position(n.Pos())
			end := pkg.Fset.Position(n.End()).Line
			lines := out[start.Filename]
			if lines == nil {
				lines = map[int]int{}
				out[start.Filename] = lines
			}
			if end > lines[start.Line] {
				lines[start.Line] = end
			}
			return true
		})
	}
	return out
}

// suppressed reports whether d is covered by an ignore directive.
func suppressed(ignores map[ignoreKey]map[string]bool, d Diagnostic) bool {
	checks, ok := ignores[ignoreKey{file: d.File, line: d.Line}]
	return ok && checks[d.Check]
}

// Timing is one analyzer's total wall-clock across every package it ran
// on (tasks run in parallel, so timings overlap and do not sum to the
// pass's elapsed time).
type Timing struct {
	Name    string
	Elapsed time.Duration
}

// RunModule applies analyzers to pkgs with facts drawn from mod, running
// every (package, analyzer) pair as its own parallel task. pkgs may be a
// subset of mod.Pkgs — facts still reflect the whole module, so a
// cross-package property (replay reachability into a package outside the
// selection) is never lost by narrowing the report scope. Diagnostics
// are deterministic: tasks write to indexed slots and the merged result
// is sorted, so the schedule cannot reorder output.
func RunModule(mod *Module, pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, []Timing) {
	slots := make([][]Diagnostic, len(pkgs)*len(analyzers))
	elapsed := make([]int64, len(analyzers))
	var wg sync.WaitGroup
	for pi := range pkgs {
		for ai := range analyzers {
			wg.Add(1)
			go func(pi, ai int) {
				defer wg.Done()
				var diags []Diagnostic
				pass := &Pass{
					Analyzer: analyzers[ai],
					Pkg:      pkgs[pi],
					Mod:      mod,
					report:   func(d Diagnostic) { diags = append(diags, d) },
				}
				start := time.Now()
				analyzers[ai].Run(pass)
				atomic.AddInt64(&elapsed[ai], int64(time.Since(start)))
				slots[pi*len(analyzers)+ai] = diags
			}(pi, ai)
		}
	}
	wg.Wait()

	// Every analyzer reports only in files of its own pass's package, so
	// the selected packages hold every directive that can cover a
	// diagnostic — including one whose reachability fact originates in an
	// unselected package.
	var raw []Diagnostic
	ignores := map[ignoreKey]map[string]bool{}
	for _, pkg := range pkgs {
		collectIgnores(pkg, ignores, func(d Diagnostic) { raw = append(raw, d) })
	}
	for i := range slots {
		raw = append(raw, slots[i]...)
	}
	var out []Diagnostic
	for _, d := range raw {
		if !suppressed(ignores, d) {
			out = append(out, d)
		}
	}
	sortDiagnostics(out)

	timings := make([]Timing, len(analyzers))
	for ai, an := range analyzers {
		timings[ai] = Timing{Name: an.Name, Elapsed: time.Duration(elapsed[ai])}
	}
	return out, timings
}

func sortDiagnostics(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Check < b.Check
	})
}
