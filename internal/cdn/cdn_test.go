package cdn

import (
	"testing"

	"anycastcdn/internal/geo"
	"anycastcdn/internal/netaddr"
	"anycastcdn/internal/topology"
)

func TestBuildDefault(t *testing.T) {
	d, err := BuildDefault()
	if err != nil {
		t.Fatal(err)
	}
	if n := d.NumFrontEnds(); n != 64 {
		t.Fatalf("default deployment has %d front-ends, want 64", n)
	}
	if got := d.Backbone.NumSites(); got <= d.NumFrontEnds() {
		t.Fatalf("expected peering-only sites beyond the %d front-ends, got %d sites",
			d.NumFrontEnds(), got)
	}
}

func TestDeploymentRegionalDensity(t *testing.T) {
	d, err := BuildDefault()
	if err != nil {
		t.Fatal(err)
	}
	regions := map[geo.Region]int{}
	for _, fe := range d.FrontEnds {
		regions[d.Backbone.Site(fe.Site).Metro.Region]++
	}
	if regions[geo.RegionNorthAmerica] < 15 || regions[geo.RegionEurope] < 15 {
		t.Fatalf("NA/EU should be dense: %v", regions)
	}
	for _, r := range []geo.Region{geo.RegionAsia, geo.RegionSouthAmerica, geo.RegionOceania, geo.RegionAfrica} {
		if regions[r] == 0 {
			t.Fatalf("region %s has no front-ends", r)
		}
		if regions[r] >= regions[geo.RegionNorthAmerica] {
			t.Fatalf("region %s should be sparser than North America: %v", r, regions)
		}
	}
}

func TestUnicastPrefixesUnique(t *testing.T) {
	d, err := BuildDefault()
	if err != nil {
		t.Fatal(err)
	}
	seen := map[netaddr.Prefix24]bool{}
	for _, fe := range d.FrontEnds {
		if seen[fe.Unicast] {
			t.Fatalf("duplicate unicast prefix %v", fe.Unicast)
		}
		seen[fe.Unicast] = true
		if fe.Unicast == d.AnycastVIP {
			t.Fatal("unicast prefix collides with anycast VIP")
		}
	}
}

func TestNewDeploymentOnCustomBackbone(t *testing.T) {
	b, err := topology.Build([]topology.SiteSpec{
		{Metro: "london", FrontEnd: true, Peering: true},
		{Metro: "paris", FrontEnd: true, Peering: true},
	}, 2)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDeployment(b)
	if err != nil {
		t.Fatal(err)
	}
	if d.NumFrontEnds() != 2 {
		t.Fatalf("front-ends = %d, want 2", d.NumFrontEnds())
	}
	if d.FrontEnds[0].Name != "london" {
		t.Fatalf("front-end name = %q", d.FrontEnds[0].Name)
	}
}

func TestCatalog(t *testing.T) {
	cat := Catalog()
	if len(cat) != 22 {
		t.Fatalf("catalog has %d entries, want 22 (21 public + the measured CDN)", len(cat))
	}
	names := map[string]bool{}
	outliers, anycastCount := 0, 0
	for _, c := range cat {
		if names[c.Name] {
			t.Fatalf("duplicate CDN %q", c.Name)
		}
		names[c.Name] = true
		if c.Locations <= 0 {
			t.Fatalf("CDN %q has non-positive location count", c.Name)
		}
		if c.Outlier {
			outliers++
		}
		if c.Anycast {
			anycastCount++
		}
	}
	if outliers != 4 {
		t.Fatalf("catalog marks %d outliers, want 4 (§4)", outliers)
	}
	if anycastCount < 4 {
		t.Fatalf("catalog marks %d anycast CDNs, want >= 4", anycastCount)
	}
	// The paper's non-outlier range: 17 (CDNify) to 161 (CDNetworks).
	for _, c := range cat {
		if !c.Outlier && (c.Locations < 17 || c.Locations > 161) {
			t.Errorf("non-outlier %s has %d locations, outside the paper's 17-161 range", c.Name, c.Locations)
		}
	}
}

func BenchmarkBuildDefault(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := BuildDefault(); err != nil {
			b.Fatal(err)
		}
	}
}

func TestSiteSpecsForPresets(t *testing.T) {
	def, err := SiteSpecsFor(PresetDefault)
	if err != nil {
		t.Fatal(err)
	}
	med, err := SiteSpecsFor(PresetMedium)
	if err != nil {
		t.Fatal(err)
	}
	sparse, err := SiteSpecsFor(PresetSparse)
	if err != nil {
		t.Fatal(err)
	}
	count := func(specs []topology.SiteSpec) (fe, peer int) {
		for _, s := range specs {
			if s.FrontEnd {
				fe++
			}
			if s.Peering {
				peer++
			}
		}
		return
	}
	feD, peerD := count(def)
	feM, _ := count(med)
	feS, _ := count(sparse)
	if !(feD > feM && feM > feS) {
		t.Fatalf("front-end counts not decreasing: %d, %d, %d", feD, feM, feS)
	}
	if feS < 6 {
		t.Fatalf("sparse preset too sparse: %d front-ends", feS)
	}
	// Demoted sites keep their peering; total peering never shrinks.
	_, peerM := count(med)
	if peerM != peerD {
		t.Fatalf("peering count changed: %d -> %d", peerD, peerM)
	}
	// Every region keeps at least one front-end.
	for _, specs := range [][]topology.SiteSpec{med, sparse} {
		regions := map[geo.Region]bool{}
		for _, sp := range specs {
			if !sp.FrontEnd {
				continue
			}
			m, _ := geo.FindMetro(sp.Metro)
			regions[m.Region] = true
		}
		for _, r := range []geo.Region{geo.RegionNorthAmerica, geo.RegionEurope, geo.RegionAsia,
			geo.RegionSouthAmerica, geo.RegionOceania, geo.RegionAfrica} {
			if !regions[r] {
				t.Fatalf("region %s lost all front-ends", r)
			}
		}
	}
	if _, err := SiteSpecsFor("bogus"); err == nil {
		t.Fatal("unknown preset should fail")
	}
}

func TestBuildPreset(t *testing.T) {
	for _, p := range []Preset{PresetDefault, PresetMedium, PresetSparse} {
		d, err := BuildPreset(p)
		if err != nil {
			t.Fatalf("preset %s: %v", p, err)
		}
		if d.NumFrontEnds() == 0 {
			t.Fatalf("preset %s has no front-ends", p)
		}
	}
}
