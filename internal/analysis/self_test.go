package analysis

import (
	"os"
	"path/filepath"
	"testing"
)

// TestRepoIsClean runs every analyzer against this repository's own
// source. A failure here means a new violation of the determinism,
// error-handling, locking, or no-panic invariants landed; fix the code
// (or, for a genuinely justified exception, add a
// "//lint:ignore <check> <reason>" on the offending line).
func TestRepoIsClean(t *testing.T) {
	root := moduleRootForTest(t)
	pkgs, err := LoadModule(root)
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	if len(pkgs) < 20 {
		t.Fatalf("loaded only %d packages; the loader is missing most of the tree", len(pkgs))
	}
	diags, _ := RunModule(NewModule(pkgs), pkgs, Analyzers())
	for _, d := range diags {
		t.Errorf("%s", d)
	}
	if len(diags) > 0 {
		t.Logf("%d violation(s); run `go run ./cmd/anycastvet ./...` locally for the same report", len(diags))
	}
}

// TestSuiteShape pins the advertised analyzer set: exactly the nine
// invariants the repo documents, in reporting order, each with a name
// and doc.
func TestSuiteShape(t *testing.T) {
	want := []string{
		"uncheckederr", "mutexhygiene", "nopanic", "goroutineleak", "ctxpropagation",
		"unitsafety", "lockdoc", "replaysafety", "hotpathalloc",
	}
	ans := Analyzers()
	if len(ans) != len(want) {
		t.Fatalf("Analyzers() = %d analyzers, want %d", len(ans), len(want))
	}
	for i, an := range ans {
		if an.Name != want[i] {
			t.Errorf("Analyzers()[%d] = %q, want %q", i, an.Name, want[i])
		}
		if an.Doc == "" || an.Run == nil {
			t.Errorf("analyzer %q is missing a doc or run function", an.Name)
		}
	}
}

// moduleRootForTest walks up from the package directory to go.mod.
func moduleRootForTest(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above test working directory")
		}
		dir = parent
	}
}
