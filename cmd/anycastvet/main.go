// Command anycastvet runs the repository's custom static-analysis suite
// (internal/analysis) over the module and reports invariant violations:
// dropped errors on the network paths, Lock() calls with no matching
// Unlock, panics in library code, goroutines with no join/cancel path,
// dnswire net I/O that ignores the caller's ctx, bare-float64
// latency/distance quantities that bypass internal/units, exported
// mutex-holding types with no documented locking contract, replay
// hazards (order-dependent map iteration, wall-clock reads and global
// math/rand in the deterministic packages or anywhere a replay root
// reaches), and allocation-forcing constructs in //perf:hotpath
// functions.
//
// The whole module is loaded and type-checked once; cross-package facts
// (replay reachability, hot-path annotations) always reflect the full
// module even when the report is narrowed to a package pattern.
//
// Usage:
//
//	go run ./cmd/anycastvet ./...              # whole module
//	go run ./cmd/anycastvet ./internal/sim/... # one subtree
//	go run ./cmd/anycastvet -json ./...        # machine-readable output
//	go run ./cmd/anycastvet -list              # describe the analyzers
//	go run ./cmd/anycastvet -checks replaysafety,hotpathalloc ./...
//	go run ./cmd/anycastvet -timings ./...     # per-analyzer wall-clock on stderr
//
// Exit status: 0 clean, 1 diagnostics reported, 2 usage or load failure.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"anycastcdn/internal/analysis"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit diagnostics as a JSON array")
	list := flag.Bool("list", false, "list analyzers and exit")
	checks := flag.String("checks", "", "comma-separated analyzer names to run (default: all)")
	timings := flag.Bool("timings", false, "print per-analyzer wall-clock timings to stderr")
	flag.Parse()

	if *list {
		for _, an := range analysis.Analyzers() {
			fmt.Printf("%-16s %s\n", an.Name, an.Doc)
		}
		return
	}

	analyzers, err := selectAnalyzers(*checks)
	if err != nil {
		fmt.Fprintln(os.Stderr, "anycastvet:", err)
		os.Exit(2)
	}

	root, err := moduleRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "anycastvet:", err)
		os.Exit(2)
	}
	pkgs, err := analysis.LoadModule(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "anycastvet:", err)
		os.Exit(2)
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	var selected []*analysis.Package
	for _, pkg := range pkgs {
		if matchAny(pkg.Dir, patterns) {
			selected = append(selected, pkg)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(os.Stderr, "anycastvet: no packages match %v\n", patterns)
		os.Exit(2)
	}

	// Facts come from the whole module; the pattern only narrows where
	// diagnostics are reported.
	mod := analysis.NewModule(pkgs)
	diags, perAnalyzer := analysis.RunModule(mod, selected, analyzers)
	if *timings {
		for _, tm := range perAnalyzer {
			fmt.Fprintf(os.Stderr, "anycastvet: %-16s %8.1fms\n", tm.Name, float64(tm.Elapsed.Microseconds())/1000)
		}
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if diags == nil {
			diags = []analysis.Diagnostic{}
		}
		if err := enc.Encode(diags); err != nil {
			fmt.Fprintln(os.Stderr, "anycastvet:", err)
			os.Exit(2)
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
		fmt.Fprintf(os.Stderr, "anycastvet: %d package(s), %d diagnostic(s)\n", len(selected), len(diags))
	}
	if len(diags) > 0 {
		os.Exit(1)
	}
}

// selectAnalyzers resolves the -checks flag against the registry.
func selectAnalyzers(names string) ([]*analysis.Analyzer, error) {
	all := analysis.Analyzers()
	if names == "" {
		return all, nil
	}
	byName := map[string]*analysis.Analyzer{}
	for _, an := range all {
		byName[an.Name] = an
	}
	var out []*analysis.Analyzer
	for _, name := range strings.Split(names, ",") {
		an, ok := byName[strings.TrimSpace(name)]
		if !ok {
			return nil, fmt.Errorf("unknown analyzer %q", name)
		}
		out = append(out, an)
	}
	return out, nil
}

// moduleRoot walks up from the working directory to the go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above the working directory")
		}
		dir = parent
	}
}

// matchAny reports whether a package dir (relative to the module root,
// "." for the root package) matches any go-style pattern: "./..." matches
// everything, "./x/..." a subtree, "./x" or "x" one directory.
func matchAny(dir string, patterns []string) bool {
	dir = filepath.ToSlash(dir)
	for _, pat := range patterns {
		pat = strings.TrimPrefix(filepath.ToSlash(pat), "./")
		pat = strings.TrimSuffix(pat, "/")
		switch {
		case pat == "..." || pat == ".":
			return true
		case strings.HasSuffix(pat, "/..."):
			base := strings.TrimSuffix(pat, "/...")
			if dir == base || strings.HasPrefix(dir, base+"/") {
				return true
			}
		default:
			if dir == pat {
				return true
			}
		}
	}
	return false
}
