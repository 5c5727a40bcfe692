package load

import (
	"slices"
	"testing"

	"anycastcdn/internal/topology"
	"anycastcdn/internal/units"
	"anycastcdn/internal/xrand"
)

// buildBackbone creates a 5-front-end US backbone for load tests.
func buildBackbone(t *testing.T) *topology.Backbone {
	t.Helper()
	b, err := topology.Build([]topology.SiteSpec{
		{Metro: "new-york", FrontEnd: true, Peering: true},
		{Metro: "washington", FrontEnd: true, Peering: true},
		{Metro: "chicago", FrontEnd: true, Peering: true},
		{Metro: "dallas", FrontEnd: true, Peering: true},
		{Metro: "los-angeles", FrontEnd: true, Peering: true},
	}, 2)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func defaultLayers(b *topology.Backbone) []Layer {
	all := b.FrontEnds()
	// Layer 1: the three biggest sites (NY, Chicago, LA by index here).
	return []Layer{
		{Sites: all},
		{Sites: []topology.SiteID{all[0], all[2], all[4]}},
	}
}

func defaultCapacity(b *topology.Backbone) []float64 {
	caps := make([]float64, b.NumSites())
	for _, s := range b.FrontEnds() {
		caps[s] = 120
	}
	return caps
}

func TestNewBalancerValidation(t *testing.T) {
	b := buildBackbone(t)
	if _, err := NewBalancer(b, nil, nil); err == nil {
		t.Fatal("no layers should fail")
	}
	if _, err := NewBalancer(b, []Layer{{}}, defaultCapacity(b)); err == nil {
		t.Fatal("empty layer should fail")
	}
	caps := defaultCapacity(b)
	caps[b.FrontEnds()[0]] = 0
	if _, err := NewBalancer(b, defaultLayers(b), caps); err == nil {
		t.Fatal("zero capacity should fail")
	}
	if _, err := NewBalancer(b, defaultLayers(b), caps[:len(caps)-1]); err == nil {
		t.Fatal("capacities shorter than the site count should fail")
	}
}

// route walks the layer stack from the ring-0 member nearest ingress,
// with the heavy-hitter rule off.
func route(bal *Balancer, ingress topology.SiteID, u float64) topology.SiteID {
	return bal.RouteFrom(ingress, bal.frontEndAtLayer(ingress, 0, topology.InvalidSite), u, 0)
}

func TestRouteNoOverloadServesNearest(t *testing.T) {
	b := buildBackbone(t)
	bal, err := NewBalancer(b, defaultLayers(b), defaultCapacity(b))
	if err != nil {
		t.Fatal(err)
	}
	for _, ingress := range b.FrontEnds() {
		fe := route(bal, ingress, 0.5)
		if fe != ingress {
			t.Fatalf("with no shedding, ingress %d should be served locally, got %d", ingress, fe)
		}
	}
}

func TestOfferedConservesLoad(t *testing.T) {
	b := buildBackbone(t)
	bal, err := NewBalancer(b, defaultLayers(b), defaultCapacity(b))
	if err != nil {
		t.Fatal(err)
	}
	demand := make([]float64, b.NumSites())
	var total float64
	for i, s := range b.FrontEnds() {
		demand[s] = float64(20 + i*10)
		total += demand[s]
	}
	// Force some shedding and verify conservation.
	bal.shed[0][b.FrontEnds()[1]] = 0.5
	loads := bal.Offered(demand)
	var got float64
	for _, l := range loads {
		for _, v := range l {
			got += v
		}
	}
	if diff := got - total; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("offered load %v != demand %v", got, total)
	}
}

func TestConvergeShedsOverload(t *testing.T) {
	b := buildBackbone(t)
	bal, err := NewBalancer(b, defaultLayers(b), defaultCapacity(b))
	if err != nil {
		t.Fatal(err)
	}
	fes := b.FrontEnds()
	// Flash crowd: washington (a layer-0-only site) exceeds its capacity
	// while the system as a whole has headroom.
	demand := make([]float64, b.NumSites())
	for _, s := range fes {
		demand[s] = 40
	}
	demand[fes[1]] = 160
	maxUtil, steps := bal.Converge(demand, 200)
	if maxUtil > 1.0 {
		t.Fatalf("converged max utilization %.2f still above capacity after %d steps", maxUtil, steps)
	}
	if f := bal.ShedFraction(0, fes[1]); f <= 0 {
		t.Fatal("overloaded site should shed")
	}
	// Unaffected far sites should shed little or nothing.
	if f := bal.ShedFraction(0, fes[4]); f > 0.2 {
		t.Fatalf("unaffected site shedding %.2f", f)
	}
}

func TestShedFractionRecovers(t *testing.T) {
	b := buildBackbone(t)
	bal, err := NewBalancer(b, defaultLayers(b), defaultCapacity(b))
	if err != nil {
		t.Fatal(err)
	}
	fes := b.FrontEnds()
	hot := make([]float64, b.NumSites())
	hot[fes[1]] = 160
	bal.Converge(hot, 100)
	before := bal.ShedFraction(0, fes[1])
	if before <= 0 {
		t.Fatal("expected shedding during the flash crowd")
	}
	// Crowd subsides: shedding should decay.
	calm := make([]float64, b.NumSites())
	calm[fes[1]] = 30
	bal.Converge(calm, 200)
	after := bal.ShedFraction(0, fes[1])
	if after >= before {
		t.Fatalf("shed fraction did not recover: %.3f -> %.3f", before, after)
	}
}

func TestRouteDistributionMatchesShedFraction(t *testing.T) {
	b := buildBackbone(t)
	bal, err := NewBalancer(b, defaultLayers(b), defaultCapacity(b))
	if err != nil {
		t.Fatal(err)
	}
	fes := b.FrontEnds()
	bal.shed[0][fes[1]] = 0.3
	rs := xrand.New(7)
	local, shedded := 0, 0
	const n = 50000
	for i := 0; i < n; i++ {
		fe := route(bal, fes[1], rs.Float64())
		if fe == fes[1] {
			local++
		} else {
			shedded++
		}
	}
	frac := float64(shedded) / n
	if frac < 0.27 || frac > 0.33 {
		t.Fatalf("shed fraction realized %.3f, want ~0.3", frac)
	}
}

func TestRouteLastLayerAlwaysServes(t *testing.T) {
	b := buildBackbone(t)
	bal, err := NewBalancer(b, defaultLayers(b), defaultCapacity(b))
	if err != nil {
		t.Fatal(err)
	}
	fes := b.FrontEnds()
	// Shed everything everywhere: queries must still land on a layer-1
	// member.
	for _, s := range fes {
		bal.shed[0][s] = 1.0
	}
	layer1 := []topology.SiteID{fes[0], fes[2], fes[4]}
	for _, ingress := range fes {
		fe := route(bal, ingress, 0.99)
		if !slices.Contains(layer1, fe) {
			t.Fatalf("fully shed ingress %d served by non-layer-1 site %d", ingress, fe)
		}
	}
}

// TestWithdrawalCascades reproduces §2's warning: withdrawing an
// overloaded front-end's route dumps its entire load on the next nearest
// front-end, which then overloads too — while fractional shedding keeps
// everyone under capacity.
func TestWithdrawalCascades(t *testing.T) {
	b := buildBackbone(t)
	fes := b.FrontEnds()
	caps := defaultCapacity(b)
	demand := make([]float64, b.NumSites())
	for _, s := range fes {
		demand[s] = 80 // everyone around 2/3 utilization already
	}
	demand[fes[1]] = 150 // washington overloaded

	// Naive strategy: withdraw washington. All its demand lands on the
	// next nearest front-end, pushing it over capacity too; withdrawing
	// that one cascades further — §2's failure mode.
	withdrawn := make([]bool, b.NumSites())
	overloadedChain := 0
	current := fes[1]
	for i := 0; i < len(fes); i++ {
		load := demandOn(b, demand, withdrawn, current)
		if load <= caps[current] {
			break
		}
		overloadedChain++
		withdrawn[current] = true
		current = nearestStanding(b, current, fes, withdrawn)
		if current == topology.InvalidSite {
			break
		}
	}
	if overloadedChain < 2 {
		t.Fatalf("expected a withdrawal cascade, got chain length %d", overloadedChain)
	}

	// FastRoute-style shedding on the same demand keeps max utilization
	// at or below 1.
	bal, err := NewBalancer(b, defaultLayers(b), caps)
	if err != nil {
		t.Fatal(err)
	}
	maxUtil, _ := bal.Converge(demand, 200)
	if maxUtil > 1.0+1e-9 {
		t.Fatalf("layered shedding left max utilization %.2f", maxUtil)
	}
}

// demandOn computes the load a site would carry if every withdrawn site's
// demand re-homes to its nearest standing front-end.
func demandOn(b *topology.Backbone, demand []float64, withdrawn []bool, site topology.SiteID) float64 {
	total := 0.0
	for ing, q := range demand {
		cur := topology.SiteID(ing)
		if withdrawn[cur] {
			cur = nearestStanding(b, cur, b.FrontEnds(), withdrawn)
		}
		if cur == site {
			total += q
		}
	}
	return total
}

func nearestStanding(b *topology.Backbone, from topology.SiteID, fes []topology.SiteID, withdrawn []bool) topology.SiteID {
	best := topology.InvalidSite
	bestD := units.Kilometers(1e18)
	for _, s := range fes {
		if withdrawn[s] || s == from {
			continue
		}
		if d := b.IGPDistanceKm(from, s); d < bestD {
			best, bestD = s, d
		}
	}
	return best
}

func BenchmarkConverge(b *testing.B) {
	bb, err := topology.Build([]topology.SiteSpec{
		{Metro: "new-york", FrontEnd: true, Peering: true},
		{Metro: "washington", FrontEnd: true, Peering: true},
		{Metro: "chicago", FrontEnd: true, Peering: true},
		{Metro: "dallas", FrontEnd: true, Peering: true},
		{Metro: "los-angeles", FrontEnd: true, Peering: true},
	}, 2)
	if err != nil {
		b.Fatal(err)
	}
	fes := bb.FrontEnds()
	caps := make([]float64, bb.NumSites())
	demand := make([]float64, bb.NumSites())
	for _, s := range fes {
		caps[s] = 100
		demand[s] = 70
	}
	demand[fes[1]] = 250
	layers := []Layer{{Sites: fes}, {Sites: []topology.SiteID{fes[0], fes[2], fes[4]}}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bal, err := NewBalancer(bb, layers, caps)
		if err != nil {
			b.Fatal(err)
		}
		bal.Converge(demand, 100)
	}
}
