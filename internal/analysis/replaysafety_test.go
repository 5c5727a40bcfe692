package analysis

import "testing"

// TestReplaySafetyMapRanges covers every map-range construct the analyzer
// flags in a replay-sensitive package — float accumulation into a
// variable, a map element or a field, append, channel send — plus the
// exemptions: integer accumulation (into a variable or an element),
// sorted-key iteration, and a justified //replay:commutative directive.
func TestReplaySafetyMapRanges(t *testing.T) {
	src := `package sim

import "sort"

func Accumulate(m map[string]float64, ch chan float64) (float64, []string) {
	var total float64
	var keys []string
	n := 0
	for k, v := range m {
		total += v
		keys = append(keys, k)
		ch <- v
		n += 1
	}
	_ = n
	sorted := make([]string, 0, len(m))
	//replay:commutative keys only; sorted immediately below
	for k := range m {
		sorted = append(sorted, k)
	}
	sort.Strings(sorted)
	var ordered float64
	for _, k := range sorted {
		ordered += m[k]
	}
	return total + ordered, keys
}

func Elements(m, sums map[string]float64, counts map[string]int) float64 {
	var acc struct{ total float64 }
	for k, v := range m {
		sums[k[:1]] += v
		acc.total += v
		counts[k[:1]] += 1
	}
	//replay:commutative every key is visited once, so each element gets one addition
	for k, v := range m {
		sums[k] += v
	}
	return acc.total
}
`
	got := checkFixture(t, ReplaySafety, "anycastcdn/internal/sim", map[string]string{"a.go": src})
	wantDiags(t, got, []string{
		"a.go:10:replaysafety", // total += v: float accumulation in key order
		"a.go:11:replaysafety", // keys = append(keys, k)
		"a.go:12:replaysafety", // ch <- v
		// n += 1 is integer (exact, commutative): not flagged.
		// line 18: justified by the //replay:commutative directive above it.
		// line 24: range over a sorted slice, not a map.
		"a.go:32:replaysafety", // sums[k[:1]] += v: float map element
		"a.go:33:replaysafety", // acc.total += v: float field
		// line 34: counts[k[:1]] += 1 is an integer element: not flagged.
		// line 37: justified by the //replay:commutative directive above it.
	})
}

// TestReplaySafetyDirectiveNeedsReason pins the escape hatch's own
// contract: a bare //replay:commutative is reported, and does not
// suppress the loop below it.
func TestReplaySafetyDirectiveNeedsReason(t *testing.T) {
	src := `package sim

func Keys(m map[int]int) []int {
	var out []int
	//replay:commutative
	for k := range m {
		out = append(out, k)
	}
	return out
}
`
	got := checkFixture(t, ReplaySafety, "anycastcdn/internal/sim", map[string]string{"a.go": src})
	wantDiags(t, got, []string{
		"a.go:5:replaysafety", // the reason-less directive itself
		"a.go:7:replaysafety", // the append it failed to justify
	})
}

// TestReplaySafetyNonSensitivePackage is the negative case for the
// package gate: the same order-dependent loop outside the
// replay-sensitive list is not the analyzer's business.
func TestReplaySafetyNonSensitivePackage(t *testing.T) {
	src := `package topology

func Sum(m map[string]float64) float64 {
	var total float64
	for _, v := range m {
		total += v
	}
	return total
}
`
	got := checkFixture(t, ReplaySafety, "anycastcdn/internal/topology", map[string]string{"a.go": src})
	wantDiags(t, got, nil)
}

// TestReplaySafetyReachability covers the fact-graph checks inside one
// package: everything transitively called from a RunWorld root must not
// read the wall clock, use global math/rand, or mutate package-level
// maps — while identical code in an unreachable function passes.
func TestReplaySafetyReachability(t *testing.T) {
	src := `package widget

import (
	"math/rand"
	"time"
)

var cache = map[string]int{}

func RunWorld() {
	helper()
}

func helper() {
	_ = time.Now()
	_ = rand.Int()
	cache["x"] = 1
	delete(cache, "x")
}

func cold() {
	_ = time.Now()
	_ = rand.Int()
	cache["y"] = 2
}

var _ = cold
`
	got := checkFixture(t, ReplaySafety, "anycastcdn/internal/widget", map[string]string{"a.go": src})
	wantDiags(t, got, []string{
		"a.go:15:replaysafety", // time.Now in reachable helper
		"a.go:16:replaysafety", // global rand.Int in reachable helper
		"a.go:17:replaysafety", // write to package-level map
		"a.go:18:replaysafety", // delete on package-level map
		// cold() has every violation but is not reachable from a root.
	})
}

// TestReplaySafetyCrossPackageFact is the acceptance case for the fact
// graph: a StreamWorld root in one package reaches a callee in another
// package, and the violation is reported in the callee's package — which
// on its own has no root at all.
func TestReplaySafetyCrossPackageFact(t *testing.T) {
	got := checkModuleFixture(t, ReplaySafety, map[string]map[string]string{
		"a": {"a/a.go": `package a

import "time"

func Stamp() int64 {
	return time.Now().UnixNano()
}

func Cold() int64 {
	return time.Now().UnixNano()
}
`},
		"b": {"b/b.go": `package b

import "a"

func StreamWorld() {
	_ = a.Stamp()
}
`},
	})
	wantDiags(t, got, []string{
		"a/a.go:6:replaysafety", // Stamp is reachable from b.StreamWorld
		// Cold is identical but unreachable: not flagged.
	})
}

// TestReplaySafetySuppressed pins //lint:ignore interop: a justified
// ignore on the accumulating line suppresses the diagnostic.
func TestReplaySafetySuppressed(t *testing.T) {
	src := `package sim

func Total(m map[int]float64) float64 {
	var total float64
	for _, v := range m {
		//lint:ignore replaysafety fixture justification
		total += v
	}
	return total
}
`
	got := checkFixture(t, ReplaySafety, "anycastcdn/internal/sim", map[string]string{"a.go": src})
	wantDiags(t, got, nil)
}

// TestReplaySafetyCrossPackageIgnore pins suppression attribution: a
// //lint:ignore at the *reported* site must suppress a finding whose fact chain crosses
// packages — here the reachability fact originates at a StreamWorld
// root in package b, while the directive sits next to the time.Now
// call in package a, which has no root of its own.
func TestReplaySafetyCrossPackageIgnore(t *testing.T) {
	got := checkModuleFixture(t, ReplaySafety, map[string]map[string]string{
		"a": {"a/a.go": `package a

import "time"

func Stamp() int64 {
	//lint:ignore replaysafety fixture: wall-clock stamp never reaches replayed bytes
	return time.Now().UnixNano()
}
`},
		"b": {"b/b.go": `package b

import "a"

func StreamWorld() {
	_ = a.Stamp()
}
`},
	})
	wantDiags(t, got, nil)
}

// TestNondeterminism pins the clock and global-rand rule in its first
// scope: anywhere outside tests in a RestrictedDeterminism package,
// whether or not a replay root reaches the code.
func TestNondeterminism(t *testing.T) {
	cases := []struct {
		name  string
		path  string
		files map[string]string
		want  []string
	}{
		{
			name: "global rand and bare time.Now in sim",
			path: "anycastcdn/internal/sim",
			files: map[string]string{"a.go": `package sim

import (
	"math/rand"
	"time"
)

func Draw() int { return rand.Intn(10) }

func Stamp() time.Time { return time.Now() }
`},
			want: []string{"a.go:8:replaysafety", "a.go:10:replaysafety"},
		},
		{
			name: "seeded constructors and injected clocks are fine",
			path: "anycastcdn/internal/core",
			files: map[string]string{"a.go": `package core

import (
	"math/rand"
	"time"
)

type M struct {
	rng *rand.Rand
	now func() time.Time
}

func New(seed int64) *M {
	return &M{rng: rand.New(rand.NewSource(seed)), now: time.Now}
}

func (m *M) Draw() int { return m.rng.Intn(10) }
`},
			want: nil,
		},
		{
			name: "renamed import is still caught",
			path: "anycastcdn/internal/experiments",
			files: map[string]string{"a.go": `package experiments

import mrand "math/rand"

func Draw() float64 { return mrand.Float64() }
`},
			want: []string{"a.go:5:replaysafety"},
		},
		{
			name: "unrestricted package may use wall clocks",
			path: "anycastcdn/internal/stats",
			files: map[string]string{"a.go": `package stats

import "time"

func Stamp() time.Time { return time.Now() }
`},
			want: nil,
		},
		{
			name: "test files are exempt",
			path: "anycastcdn/internal/sim",
			files: map[string]string{"a_test.go": `package sim

import "time"

func stamp() time.Time { return time.Now() }
`},
			want: nil,
		},
		{
			name: "lint ignore suppresses with justification",
			path: "anycastcdn/internal/clients",
			files: map[string]string{"a.go": `package clients

import "time"

func Stamp() time.Time {
	//lint:ignore replaysafety wall time feeds a log label, not an experiment output
	return time.Now()
}
`},
			want: nil,
		},
		{
			name: "subpackage of a restricted package is restricted",
			path: "anycastcdn/internal/sim/replay",
			files: map[string]string{"a.go": `package replay

import "math/rand"

func Draw() int { return rand.Int() }
`},
			want: []string{"a.go:5:replaysafety"},
		},
		{
			name: "root-reachable code in a restricted package is reported once",
			path: "anycastcdn/internal/sim",
			files: map[string]string{"a.go": `package sim

import "time"

func StreamWorld() int64 { return time.Now().UnixNano() }
`},
			want: []string{"a.go:5:replaysafety"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := checkFixture(t, ReplaySafety, tc.path, tc.files)
			if len(got) != len(tc.want) {
				t.Errorf("got %d diagnostics %v, want %d", len(got), got, len(tc.want))
			}
			wantDiags(t, got, tc.want)
		})
	}
}
