package analysis

import (
	"go/types"
	"testing"
)

// TestModuleFacts pins the fact graph itself: replay reachability
// crosses package boundaries through the static call graph, and
// //perf:hotpath annotations become module-wide facts.
func TestModuleFacts(t *testing.T) {
	pkgs := loadFixtureModule(t, map[string]map[string]string{
		"a": {"a/a.go": `package a

func Leaf() int { return 1 }

func Orphan() int { return 2 }

//perf:hotpath
func Hot() int { return 3 }
`},
		"b": {"b/b.go": `package b

import "a"

func RunWorld() int {
	return indirect()
}

func indirect() int {
	return a.Leaf()
}

func idle() int { return a.Orphan() }

var _ = idle
`},
	})
	mod := NewModule(pkgs)

	lookup := func(pkgPath, name string) *types.Func {
		t.Helper()
		for _, p := range pkgs {
			if p.Path != pkgPath {
				continue
			}
			fn, ok := p.Types.Scope().Lookup(name).(*types.Func)
			if !ok {
				t.Fatalf("%s.%s is not a function", pkgPath, name)
			}
			return fn
		}
		t.Fatalf("package %s not loaded", pkgPath)
		return nil
	}

	reachable := map[string]bool{
		"RunWorld": true, "indirect": true, "Leaf": true,
		"Orphan": false, "idle": false, "Hot": false,
	}
	pkgOf := map[string]string{
		"RunWorld": "b", "indirect": "b", "idle": "b",
		"Leaf": "a", "Orphan": "a", "Hot": "a",
	}
	for name, want := range reachable {
		fn := lookup(pkgOf[name], name)
		if got := mod.ReplayReachable(fn); got != want {
			t.Errorf("ReplayReachable(%s.%s) = %v, want %v", pkgOf[name], name, got, want)
		}
	}

	if !mod.HotPath(lookup("a", "Hot")) {
		t.Errorf("HotPath(a.Hot) = false, want true (annotated)")
	}
	if mod.HotPath(lookup("a", "Leaf")) {
		t.Errorf("HotPath(a.Leaf) = true, want false (not annotated)")
	}
}

// TestRunModuleSubsetKeepsFacts pins the CLI's split between fact scope
// and report scope: analyzing only package a against whole-module facts
// still flags a's violation, because reachability came from b's root.
func TestRunModuleSubsetKeepsFacts(t *testing.T) {
	pkgs := loadFixtureModule(t, map[string]map[string]string{
		"a": {"a/a.go": `package a

import "time"

func Stamp() int64 {
	return time.Now().UnixNano()
}
`},
		"b": {"b/b.go": `package b

import "a"

func RunWorld() {
	_ = a.Stamp()
}
`},
	})
	mod := NewModule(pkgs)

	var subset []*Package
	for _, p := range pkgs {
		if p.Path == "a" {
			subset = append(subset, p)
		}
	}
	diags, timings := RunModule(mod, subset, []*Analyzer{ReplaySafety})
	if len(diags) != 1 || diags[0].File != "a/a.go" || diags[0].Line != 6 {
		t.Fatalf("subset run = %v, want the single a/a.go:6 diagnostic", diags)
	}
	if len(timings) != 1 || timings[0].Name != "replaysafety" {
		t.Fatalf("timings = %v, want one replaysafety entry", timings)
	}
}
