package topology

import (
	"math"
	"testing"

	"anycastcdn/internal/geo"
	"anycastcdn/internal/units"
)

func testSpecs() []SiteSpec {
	return []SiteSpec{
		{Metro: "new-york", FrontEnd: true, Peering: true},
		{Metro: "chicago", FrontEnd: true, Peering: true},
		{Metro: "dallas", FrontEnd: true, Peering: true},
		{Metro: "los-angeles", FrontEnd: true, Peering: true},
		{Metro: "seattle", FrontEnd: true, Peering: true},
		{Metro: "denver", FrontEnd: false, Peering: true}, // peering-only
		{Metro: "london", FrontEnd: true, Peering: true},
		{Metro: "frankfurt", FrontEnd: true, Peering: true},
		{Metro: "stockholm", FrontEnd: true, Peering: true},
		{Metro: "moscow", FrontEnd: false, Peering: false}, // backbone-only
	}
}

func mustBuild(t *testing.T) *Backbone {
	t.Helper()
	b, err := Build(testSpecs(), 3)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestBuildErrors(t *testing.T) {
	if _, err := Build(nil, 3); err == nil {
		t.Error("empty specs should fail")
	}
	if _, err := Build([]SiteSpec{{Metro: "atlantis", FrontEnd: true, Peering: true}}, 3); err == nil {
		t.Error("unknown metro should fail")
	}
	if _, err := Build([]SiteSpec{
		{Metro: "london", FrontEnd: true, Peering: true},
		{Metro: "london", FrontEnd: true, Peering: true},
	}, 3); err == nil {
		t.Error("duplicate metro should fail")
	}
	if _, err := Build([]SiteSpec{{Metro: "london", Peering: true}}, 3); err == nil {
		t.Error("no front-ends should fail")
	}
	if _, err := Build([]SiteSpec{{Metro: "london", FrontEnd: true}}, 3); err == nil {
		t.Error("no peering should fail")
	}
}

func TestBackboneConnected(t *testing.T) {
	b := mustBuild(t)
	for i := 0; i < b.NumSites(); i++ {
		for j := 0; j < b.NumSites(); j++ {
			if math.IsInf(b.IGPDistanceKm(SiteID(i), SiteID(j)).Float(), 1) {
				t.Fatalf("sites %d and %d are disconnected", i, j)
			}
		}
	}
}

func TestIGPMetricProperties(t *testing.T) {
	b := mustBuild(t)
	n := b.NumSites()
	for i := 0; i < n; i++ {
		if b.IGPDistanceKm(SiteID(i), SiteID(i)) != 0 {
			t.Fatalf("self distance of %d non-zero", i)
		}
		for j := 0; j < n; j++ {
			dij := b.IGPDistanceKm(SiteID(i), SiteID(j))
			dji := b.IGPDistanceKm(SiteID(j), SiteID(i))
			if math.Abs(dij.Float()-dji.Float()) > 1e-6 {
				t.Fatalf("IGP distance not symmetric: %v vs %v", dij, dji)
			}
			// IGP distance can never beat great-circle distance.
			air := geo.DistanceKm(b.Site(SiteID(i)).Metro.Point, b.Site(SiteID(j)).Metro.Point)
			if dij < air-1 {
				t.Fatalf("IGP distance %v beats air distance %v", dij, air)
			}
			// Triangle inequality via any intermediate k.
			for k := 0; k < n; k++ {
				if dij > b.IGPDistanceKm(SiteID(i), SiteID(k))+b.IGPDistanceKm(SiteID(k), SiteID(j))+1e-6 {
					t.Fatalf("triangle inequality violated i=%d j=%d k=%d", i, j, k)
				}
			}
		}
	}
}

func TestHotPotatoFrontEnd(t *testing.T) {
	b := mustBuild(t)
	for i := 0; i < b.NumSites(); i++ {
		fe, d := b.HotPotatoFrontEnd(SiteID(i))
		if fe == InvalidSite {
			t.Fatalf("no front-end reachable from site %d", i)
		}
		if !b.Site(fe).FrontEnd {
			t.Fatalf("hot-potato target %d is not a front-end", fe)
		}
		// The chosen FE must be at the minimum IGP distance among FEs.
		for _, other := range b.FrontEnds() {
			if b.IGPDistanceKm(SiteID(i), other) < d-1e-6 {
				t.Fatalf("site %d: FE %d closer than chosen %d", i, other, fe)
			}
		}
		// A front-end site serves itself at distance 0.
		if b.Site(SiteID(i)).FrontEnd && (fe != SiteID(i) || d != 0) {
			t.Fatalf("front-end site %d should serve itself", i)
		}
	}
}

func TestPeeringOnlySiteCostsBackbone(t *testing.T) {
	b := mustBuild(t)
	var denver SiteID = InvalidSite
	for _, s := range b.Sites {
		if s.Metro.Name == "denver" {
			denver = s.ID
		}
	}
	if denver == InvalidSite {
		t.Fatal("denver missing")
	}
	fe, d := b.HotPotatoFrontEnd(denver)
	if d <= 0 {
		t.Fatalf("peering-only site should pay backbone distance, got %v", d)
	}
	if !b.Site(fe).FrontEnd {
		t.Fatal("target is not a front-end")
	}
}

func TestPathReconstruction(t *testing.T) {
	b := mustBuild(t)
	for i := 0; i < b.NumSites(); i++ {
		for j := 0; j < b.NumSites(); j++ {
			p := b.Path(SiteID(i), SiteID(j))
			if len(p) == 0 {
				t.Fatalf("no path %d->%d", i, j)
			}
			if p[0] != SiteID(i) || p[len(p)-1] != SiteID(j) {
				t.Fatalf("path endpoints wrong: %v", p)
			}
			// Path length must equal the IGP distance.
			var total units.Kilometers
			for k := 1; k < len(p); k++ {
				total += geo.DistanceKm(b.Site(p[k-1]).Metro.Point, b.Site(p[k]).Metro.Point)
			}
			if math.Abs(total.Float()-b.IGPDistanceKm(SiteID(i), SiteID(j)).Float()) > 1e-6 {
				t.Fatalf("path cost %v != IGP distance %v for %d->%d",
					total, b.IGPDistanceKm(SiteID(i), SiteID(j)), i, j)
			}
		}
	}
}

func TestNearestSiteByAir(t *testing.T) {
	b := mustBuild(t)
	boston, _ := geo.FindMetro("boston")
	id, d := b.NearestSiteByAir(boston.Point)
	if b.Site(id).Metro.Name != "new-york" {
		t.Fatalf("nearest peering to boston = %s", b.Site(id).Metro.Name)
	}
	if d < 100 || d > 500 {
		t.Fatalf("boston-NY distance %v out of range", d)
	}
	// Moscow is a backbone-only site, so the nearest peering site from
	// moscow must be elsewhere (stockholm).
	moscow, _ := geo.FindMetro("moscow")
	id, _ = b.NearestSiteByAir(moscow.Point)
	if b.Site(id).Metro.Name != "stockholm" {
		t.Fatalf("nearest peering to moscow = %s, want stockholm", b.Site(id).Metro.Name)
	}
	// The oracle is a scan of every peering site in ID order, keeping the
	// first at the minimum distance.
	scan := func(p geo.Point) (SiteID, units.Kilometers) {
		best, bestD := InvalidSite, units.Kilometers(math.Inf(1))
		for _, s := range b.Sites {
			if !s.Peering {
				continue
			}
			if d := geo.DistanceKm(p, s.Metro.Point); d < bestD {
				best, bestD = s.ID, d
			}
		}
		return best, bestD
	}
	for _, m := range geo.World() {
		antipode := geo.Point{Lat: -m.Point.Lat, Lon: m.Point.Lon + 180}
		if antipode.Lon > 180 {
			antipode.Lon -= 360
		}
		for _, p := range []geo.Point{m.Point, antipode} {
			gotID, gotD := b.NearestSiteByAir(p)
			wantID, wantD := scan(p)
			if gotID != wantID || gotD != wantD {
				t.Fatalf("NearestSiteByAir(%v) = (%d, %v), scan (%d, %v)", p, gotID, gotD, wantID, wantD)
			}
		}
	}
}

func TestRankPeeringByAir(t *testing.T) {
	b := mustBuild(t)
	ny := b.Site(0).Metro.Point
	order := b.RankPeeringByAir(ny)
	if len(order) != len(b.PeeringSites()) {
		t.Fatalf("rank size %d != peering count %d", len(order), len(b.PeeringSites()))
	}
	prev := units.Kilometers(-1)
	for _, id := range order {
		if !b.Site(id).Peering {
			t.Fatalf("non-peering site %d in peering ranking", id)
		}
		d := geo.DistanceKm(ny, b.Site(id).Metro.Point)
		if d < prev {
			t.Fatal("ranking not sorted by distance")
		}
		prev = d
	}
	if b.Site(order[0]).Metro.Name != "new-york" {
		t.Fatalf("nearest peering to NY point = %s", b.Site(order[0]).Metro.Name)
	}
}

func TestFrontEndsAndPeeringAccessorsCopy(t *testing.T) {
	b := mustBuild(t)
	fes := b.FrontEnds()
	fes[0] = 999
	if b.FrontEnds()[0] == 999 {
		t.Fatal("FrontEnds returned shared slice")
	}
	ps := b.PeeringSites()
	ps[0] = 999
	if b.PeeringSites()[0] == 999 {
		t.Fatal("PeeringSites returned shared slice")
	}
}

func TestBuildISPs(t *testing.T) {
	b := mustBuild(t)
	metros := geo.World()
	cfg := DefaultISPModelConfig(42)
	model := BuildISPs(b, metros, cfg)
	if model.Len() == 0 {
		t.Fatal("no ISPs generated")
	}
	countries := map[string]bool{}
	for _, m := range metros {
		countries[m.Country] = true
	}
	policies := map[EgressPolicy]int{}
	for _, isp := range model.ISPs {
		if !countries[isp.Country] {
			t.Errorf("ISP %s has unknown country %q", isp.Name, isp.Country)
		}
		if len(isp.Hubs) == 0 {
			t.Errorf("ISP %s has no hub", isp.Name)
		}
		for _, h := range isp.Hubs {
			if !b.Site(h).Peering {
				t.Errorf("ISP %s hub %d is not a peering site", isp.Name, h)
			}
		}
		policies[isp.Policy]++
	}
	for c := range countries {
		if len(model.ForCountry(c)) < cfg.PerCountry {
			t.Errorf("country %s has %d ISPs, want >= %d", c, len(model.ForCountry(c)), cfg.PerCountry)
		}
	}
	total := float64(model.Len())
	if frac := float64(policies[Centralized]) / total; frac < 0.20 || frac > 0.50 {
		t.Errorf("centralized fraction %.2f far from configured 0.35", frac)
	}
	if frac := float64(policies[TieBreak]) / total; frac < 0.05 || frac > 0.26 {
		t.Errorf("tie-break fraction %.2f far from configured 0.15", frac)
	}
	// Single-interconnect applies only to centralized ISPs, and to a
	// substantial share of them.
	si := 0
	for _, isp := range model.ISPs {
		if isp.SingleInterconnect {
			si++
			if isp.Policy != Centralized {
				t.Errorf("non-centralized ISP %s marked single-interconnect", isp.Name)
			}
		}
	}
	if policies[Centralized] > 10 {
		if frac := float64(si) / float64(policies[Centralized]); frac < 0.25 || frac > 0.75 {
			t.Errorf("single-interconnect fraction of centralized = %.2f, want ~0.5", frac)
		}
	}
	if policies[HotPotato] == 0 {
		t.Error("no hot-potato ISPs")
	}
}

func TestBuildISPsDeterministic(t *testing.T) {
	b := mustBuild(t)
	metros := geo.World()
	m1 := BuildISPs(b, metros, DefaultISPModelConfig(7))
	m2 := BuildISPs(b, metros, DefaultISPModelConfig(7))
	if m1.Len() != m2.Len() {
		t.Fatal("ISP counts differ across identical builds")
	}
	for i := range m1.ISPs {
		a, c := m1.ISPs[i], m2.ISPs[i]
		if a.Name != c.Name || a.Policy != c.Policy || a.TieBreakSalt != c.TieBreakSalt {
			t.Fatalf("ISP %d differs across identical builds", i)
		}
	}
}

func TestEgressPolicyString(t *testing.T) {
	if HotPotato.String() != "hot-potato" || Centralized.String() != "centralized" ||
		TieBreak.String() != "tie-break" {
		t.Fatal("policy names wrong")
	}
	if EgressPolicy(99).String() == "" {
		t.Fatal("unknown policy should still render")
	}
}

func BenchmarkBuildBackbone(b *testing.B) {
	specs := testSpecs()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Build(specs, 3); err != nil {
			b.Fatal(err)
		}
	}
}
