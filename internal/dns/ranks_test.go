package dns

import (
	"math"
	"testing"

	"anycastcdn/internal/cdn"
	"anycastcdn/internal/geo"
	"anycastcdn/internal/topology"
	"anycastcdn/internal/xrand"
)

// inverseRankWeights are the weights of ranks 1..n-1 of an n-candidate
// list: rank i+1 is the (i+2)-th closest and weighs 1/(i+2).
func inverseRankWeights(n int) []float64 {
	weights := make([]float64, n-1)
	for i := range weights {
		weights[i] = 1 / float64(i+2)
	}
	return weights
}

// oracleRanks is the per-beacon choice the rank tables replace: build the
// inverse-rank weights, draw the first alternate with WeightedChoice,
// zero its weight and draw the second.
func oracleRanks(n int, rs *xrand.Stream) [3]int {
	if n == 1 {
		return [3]int{0, 0, 0}
	}
	weights := inverseRankWeights(n)
	first := rs.WeightedChoice(weights)
	if n == 2 {
		return [3]int{0, first + 1, 1}
	}
	weights[first] = 0
	second := rs.WeightedChoice(weights)
	return [3]int{0, first + 1, second + 1}
}

// linearChoice is WeightedChoice's body with its Float64 draw given as u.
func linearChoice(weights []float64, u float64) int {
	var total float64
	for _, w := range weights {
		total += w
	}
	target := u * total
	var acc float64
	for i, w := range weights {
		acc += w
		if target < acc {
			return i
		}
	}
	return len(weights) - 1
}

// edgeDraws are the draws that can tell `<` from `≤` in a search over
// weights' running sums: 0, each sum's share of the total and its
// neighbours, and the largest draws below 1.
func edgeDraws(weights []float64) []float64 {
	top := math.Nextafter(1, 0)
	us := []float64{0, math.SmallestNonzeroFloat64, 0.5, top, math.Nextafter(top, 0)}
	var total float64
	for _, w := range weights {
		total += w
	}
	var acc float64
	for _, w := range weights {
		acc += w
		u := acc / total
		us = append(us, u, math.Nextafter(u, 0), math.Nextafter(u, 1))
	}
	out := us[:0]
	for _, u := range us {
		if u >= 0 && u < 1 {
			out = append(out, u)
		}
	}
	return out
}

// TestTargetRanksMatchWeightedChoice checks the authority's rank tables
// against the per-beacon weight loop: on 10^5 streams per candidate count
// (ranks and the stream's state after the draws), and at every draw on a
// running sum's edge, for the first alternate and for the second after
// each possible first.
func TestTargetRanksMatchWeightedChoice(t *testing.T) {
	for _, n := range []int{1, 2, 3, 10, 11, 64} {
		a := &Authority{ranks: newRankTables(n)}
		for seed := uint64(0); seed < 100_000; seed++ {
			got, want := xrand.New(seed), xrand.New(seed)
			if g, w := a.TargetRanks(got), oracleRanks(n, want); g != w {
				t.Fatalf("n=%d stream %d: tables %v, weight loop %v", n, seed, g, w)
			}
			if *got != *want {
				t.Fatalf("n=%d stream %d: tables left the stream elsewhere than the weight loop", n, seed)
			}
		}
		if n < 2 {
			continue
		}
		weights := inverseRankWeights(n)
		reached := make([]bool, n-1)
		for _, u := range edgeDraws(weights) {
			first := linearChoice(weights, u)
			reached[first] = true
			zeroed := inverseRankWeights(n)
			zeroed[first] = 0
			vs := []float64{0.5}
			if n > 2 {
				vs = edgeDraws(zeroed)
			}
			for _, v := range vs {
				want := [3]int{0, first + 1, 1}
				if n > 2 {
					want[2] = linearChoice(zeroed, v) + 1
				}
				if got := a.ranks.at(u, v); got != want {
					t.Fatalf("n=%d draws (%v, %v): tables %v, weight loop %v", n, u, v, got, want)
				}
			}
		}
		for j, ok := range reached {
			if !ok {
				t.Fatalf("n=%d: no edge draw picked rank %d first", n, j+1)
			}
		}
	}
}

// TestAuthorityRankTablesFitCandidates pins the premise of the tables:
// every LDNS's candidate list has the one length the tables were built
// for, min(DefaultCandidates, front-ends), on deployments with fewer,
// more and many more front-ends than that.
func TestAuthorityRankTablesFitCandidates(t *testing.T) {
	var deps []*cdn.Deployment
	metros := geo.World()
	for _, k := range []int{1, 2, 3, 11} {
		specs := make([]topology.SiteSpec, k)
		for i := range specs {
			specs[i] = topology.SiteSpec{Metro: metros[i].Name, FrontEnd: true, Peering: true}
		}
		b, err := topology.Build(specs, 2)
		if err != nil {
			t.Fatal(err)
		}
		dep, err := cdn.NewDeployment(b)
		if err != nil {
			t.Fatal(err)
		}
		deps = append(deps, dep)
	}
	dep, err := cdn.BuildDefault()
	if err != nil {
		t.Fatal(err)
	}
	deps = append(deps, dep)
	rs := xrand.New(3)
	for _, dep := range deps {
		a := NewAuthority(dep, geo.NewDB(1, 200, 0.1, 8000))
		fes := len(dep.FrontEnds)
		if want := min(DefaultCandidates, fes); a.ranks.n != want {
			t.Fatalf("%d front-ends: tables built for %d candidates, want %d", fes, a.ranks.n, want)
		}
		for i := 0; i < 200; i++ {
			l := LDNS{ID: LDNSID(i), Point: geo.Point{Lat: rs.Float64()*180 - 90, Lon: rs.Float64()*360 - 180}}
			if got := len(a.Candidates(l)); got != a.ranks.n {
				t.Fatalf("%d front-ends: LDNS %d has %d candidates, tables built for %d", fes, i, got, a.ranks.n)
			}
		}
	}
}
