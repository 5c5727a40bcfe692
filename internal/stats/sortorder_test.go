package stats

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"anycastcdn/internal/xrand"
)

// The ECDF constructors sort with slices.SortFunc and slices.Sort where
// they once sorted with sort.Slice. The tests below pin that the change
// applies the same permutation, so tied samples still sum their weights
// in the same order and every output stays byte-identical.

// heapsortInputs reach pdqsort's heapsort fallback: each run of
// unbalanced partitions exhausts the recursion limit. They were found by
// a hill-climbing search over shuffled multisets, checked against an
// instrumented copy of the sort.
var heapsortInputs = [][]float64{
	{4, 0, 7, 10, 6, 9, 5, 8, 1, 3, 5, 2, 8, 5, 1, 10, 0, 3, 4, 4, 9, 7, 1, 7, 0, 2, 2, 8, 3, 6, 6, 9},
	{15, 4, 2, 13, 0, 10, 7, 5, 8, 14, 6, 2, 10, 2, 13, 11, 12, 13, 12, 6, 12, 14, 5, 9, 1, 3, 11, 4, 14, 3,
		0, 9, 11, 8, 15, 7, 1, 6, 0, 15, 8, 1, 9, 7, 5, 4, 10, 3},
}

// sortPatterns returns inputs of length n that drive pdqsort's paths:
// tie-heavy random values, sorted and reversed runs, a sawtooth and an
// organ pipe (insertion sort below 13 elements, median-of-three and
// ninther pivots, partial insertion sort and pattern breaking after
// unbalanced partitions), all-equal values and mixed signed zeros. The
// heapsort fallback needs a crafted input (heapsortInputs).
func sortPatterns(n int, rs *xrand.Stream) map[string][]float64 {
	out := map[string][]float64{}
	gen := func(name string, f func(i int) float64) {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = f(i)
		}
		out[name] = xs
	}
	gen("ties", func(int) float64 { return float64(rs.Intn(5)) })
	gen("spread", func(int) float64 { return rs.Float64() * 1000 })
	gen("sorted", func(i int) float64 { return float64(i / 3) })
	gen("reversed", func(i int) float64 { return float64((n - i) / 3) })
	gen("sawtooth", func(i int) float64 { return float64(i % 17) })
	gen("organ", func(i int) float64 {
		if i < n/2 {
			return float64(i % 64)
		}
		return float64((n - i) % 64)
	})
	gen("equal", func(int) float64 { return 42 })
	gen("zeros", func(int) float64 {
		switch rs.Intn(3) {
		case 0:
			return math.Copysign(0, -1)
		case 1:
			return 0
		}
		return float64(rs.Intn(3)) - 1
	})
	return out
}

// sameBits reports whether two slices hold the same float bits in the
// same order (so -0 and +0 differ).
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestSortWeightedMatchesSortSlice tags each sample with its input
// position in the weight, sorts with sortWeighted and with sort.Slice
// comparing x alone, and requires the same positions in the same order.
func TestSortWeightedMatchesSortSlice(t *testing.T) {
	rs := xrand.New(29)
	var inputs [][]float64
	for _, n := range append([]int{10_000, 200_000}, rangeTo(300)...) {
		for _, xs := range sortPatterns(n, rs) {
			inputs = append(inputs, xs)
		}
	}
	inputs = append(inputs, heapsortInputs...)
	for _, xs := range inputs {
		a := make([]weighted[float64], len(xs))
		for i, x := range xs {
			a[i] = weighted[float64]{x, float64(i)}
		}
		b := slices.Clone(a)
		sort.Slice(a, func(i, j int) bool { return a[i].x < a[j].x })
		sortWeighted(b)
		for i := range a {
			if a[i].w != b[i].w || math.Float64bits(a[i].x) != math.Float64bits(b[i].x) {
				t.Fatalf("n=%d: position %d holds input %v under sort.Slice, %v under sortWeighted", len(xs), i, a[i].w, b[i].w)
			}
		}
	}
}

// rangeTo returns 0, 1, …, n.
func rangeTo(n int) []int {
	out := make([]int, n+1)
	for i := range out {
		out[i] = i
	}
	return out
}

// onesReference is NewECDF as it was built before it sorted bare
// samples: NewWeightedECDF's pair sort with sort.Slice over all-ones
// weights, summing the weights in sorted order.
func onesReference(samples []float64) ([]float64, []float64) {
	type pair struct{ x, w float64 }
	ps := make([]pair, len(samples))
	for i, x := range samples {
		ps[i] = pair{x, 1}
	}
	sort.Slice(ps, func(i, j int) bool { return ps[i].x < ps[j].x })
	xs, cw := make([]float64, len(ps)), make([]float64, len(ps))
	var acc float64
	for i, p := range ps {
		acc += p.w
		xs[i], cw[i] = p.x, acc
	}
	return xs, cw
}

func TestNewECDFMatchesOnesWeightedReference(t *testing.T) {
	rs := xrand.New(31)
	cases := map[string][]float64{"heapsort-32": heapsortInputs[0], "heapsort-48": heapsortInputs[1]}
	for _, n := range []int{1, 2, 7, 12, 13, 49, 50, 51, 300, 10_000, 200_000} {
		for name, xs := range sortPatterns(n, rs) {
			cases[fmt.Sprintf("%s-%d", name, n)] = xs
		}
	}
	for name, xs := range cases {
		n := len(xs)
		e, err := NewECDF(xs)
		if err != nil {
			t.Fatalf("%s n=%d: %v", name, n, err)
		}
		wantXs, wantCw := onesReference(xs)
		if !sameBits(e.xs, wantXs) || !sameBits(e.cw, wantCw) {
			t.Fatalf("%s n=%d: NewECDF differs from the all-ones weighted construction", name, n)
		}
		// The counted twin of a weighted ECDF is the same ECDF.
		ws := make([]float64, n)
		for i := range ws {
			ws[i] = rs.Float64()
		}
		ws[0] = 1 // a positive total
		we, err := NewWeightedECDF(xs, ws)
		if err != nil {
			t.Fatalf("%s n=%d: %v", name, n, err)
		}
		u := we.Unweighted()
		if !sameBits(u.xs, wantXs) || !sameBits(u.cw, wantCw) {
			t.Fatalf("%s n=%d: Unweighted differs from the all-ones weighted construction", name, n)
		}
	}
	if _, err := NewECDF([]float64{}); err != ErrEmpty {
		t.Fatalf("NewECDF(empty) error %v, want ErrEmpty", err)
	}
	if _, err := NewECDF([]float64{1, math.NaN()}); err == nil || err.Error() != "stats: negative or NaN weight/sample" {
		t.Fatalf("NewECDF(NaN) error %v, want the NaN rejection", err)
	}
}

// TestNewWeightedECDFTieOrder pins tied samples summing their weights in
// sort.Slice's order: with weights of very different magnitude, another
// order of the same ties rounds to different cumulative bits.
func TestNewWeightedECDFTieOrder(t *testing.T) {
	rs := xrand.New(37)
	for _, n := range []int{13, 64, 300, 10_000} {
		xs := make([]float64, n)
		ws := make([]float64, n)
		for i := range xs {
			xs[i] = float64(rs.Intn(4))
			ws[i] = math.Ldexp(1+rs.Float64(), rs.Intn(80)-40)
		}
		e, err := NewWeightedECDF(xs, ws)
		if err != nil {
			t.Fatal(err)
		}
		type pair struct{ x, w float64 }
		ps := make([]pair, n)
		for i := range ps {
			ps[i] = pair{xs[i], ws[i]}
		}
		sort.Slice(ps, func(i, j int) bool { return ps[i].x < ps[j].x })
		var acc float64
		for i, p := range ps {
			acc += p.w
			if math.Float64bits(e.cw[i]) != math.Float64bits(acc) {
				t.Fatalf("n=%d: cumulative weight %d is %v, sort.Slice's order sums %v", n, i, e.cw[i], acc)
			}
		}
	}
}
