package clients

import (
	"math"
	"sort"
	"testing"

	"anycastcdn/internal/geo"
	"anycastcdn/internal/netaddr"
	"anycastcdn/internal/topology"
)

func world(t *testing.T) ([]geo.Metro, *topology.ISPModel) {
	t.Helper()
	b, err := topology.Build([]topology.SiteSpec{
		{Metro: "new-york", FrontEnd: true, Peering: true},
		{Metro: "london", FrontEnd: true, Peering: true},
		{Metro: "tokyo", FrontEnd: true, Peering: true},
		{Metro: "sydney", FrontEnd: true, Peering: true},
	}, 2)
	if err != nil {
		t.Fatal(err)
	}
	metros := geo.World()
	return metros, topology.BuildISPs(b, metros, topology.DefaultISPModelConfig(1))
}

func TestGenerateBasics(t *testing.T) {
	metros, isps := world(t)
	pop, err := Generate(metros, isps, DefaultConfig(42, 5000))
	if err != nil {
		t.Fatal(err)
	}
	if len(pop.Clients) != 5000 {
		t.Fatalf("got %d clients, want 5000", len(pop.Clients))
	}
	if pop.TotalVolume <= 0 {
		t.Fatal("total volume must be positive")
	}
	prefixes := map[netaddr.Prefix24]bool{}
	metroByName := map[string]geo.Metro{}
	for _, m := range metros {
		metroByName[m.Name] = m
	}
	for _, c := range pop.Clients {
		if prefixes[c.Prefix] {
			t.Fatalf("duplicate prefix %v", c.Prefix)
		}
		prefixes[c.Prefix] = true
		if !c.Point.Valid() {
			t.Fatalf("client %d has invalid point", c.ID)
		}
		if c.Volume <= 0 {
			t.Fatalf("client %d has non-positive volume", c.ID)
		}
		m, ok := metroByName[c.Metro]
		if !ok {
			t.Fatalf("client %d has unknown metro %q", c.ID, c.Metro)
		}
		if m.Country != c.Country || m.Region != c.Region {
			t.Fatalf("client %d metro metadata mismatch", c.ID)
		}
		if isps.ISP(c.ISP).Country != c.Country {
			t.Fatalf("client %d assigned ISP of wrong country", c.ID)
		}
	}
}

func TestGenerateErrors(t *testing.T) {
	metros, isps := world(t)
	if _, err := Generate(metros, isps, DefaultConfig(1, 0)); err == nil {
		t.Error("zero population should fail")
	}
	if _, err := Generate(nil, isps, DefaultConfig(1, 10)); err == nil {
		t.Error("empty catalog should fail")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	metros, isps := world(t)
	p1, err := Generate(metros, isps, DefaultConfig(9, 500))
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Generate(metros, isps, DefaultConfig(9, 500))
	if err != nil {
		t.Fatal(err)
	}
	for i := range p1.Clients {
		if p1.Clients[i] != p2.Clients[i] {
			t.Fatalf("client %d differs across identical generations", i)
		}
	}
}

func TestClientsNearTheirMetro(t *testing.T) {
	metros, isps := world(t)
	pop, err := Generate(metros, isps, DefaultConfig(3, 3000))
	if err != nil {
		t.Fatal(err)
	}
	metroByName := map[string]geo.Point{}
	for _, m := range metros {
		metroByName[m.Name] = m.Point
	}
	var dists []float64
	for _, c := range pop.Clients {
		dists = append(dists, geo.DistanceKm(c.Point, metroByName[c.Metro]).Float())
	}
	sort.Float64s(dists)
	med := dists[len(dists)/2]
	if med < 50 || med > 180 {
		t.Fatalf("median scatter %.1f km, want near 95", med)
	}
}

func TestVolumeHeavyTail(t *testing.T) {
	metros, isps := world(t)
	pop, err := Generate(metros, isps, DefaultConfig(4, 10000))
	if err != nil {
		t.Fatal(err)
	}
	vols := make([]float64, len(pop.Clients))
	for i, c := range pop.Clients {
		vols[i] = c.Volume
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(vols)))
	var top, total float64
	for i, v := range vols {
		total += v
		if i < len(vols)/10 {
			top += v
		}
	}
	// Top 10% of prefixes should carry a large share of volume.
	if share := top / total; share < 0.45 {
		t.Fatalf("top-decile volume share %.2f; volumes should be heavily skewed", share)
	}
}

func TestPopulationSkewsToNAandEU(t *testing.T) {
	metros, isps := world(t)
	pop, err := Generate(metros, isps, DefaultConfig(5, 10000))
	if err != nil {
		t.Fatal(err)
	}
	regions := map[geo.Region]int{}
	for _, c := range pop.Clients {
		regions[c.Region]++
	}
	naeu := regions[geo.RegionNorthAmerica] + regions[geo.RegionEurope]
	if frac := float64(naeu) / float64(len(pop.Clients)); frac < 0.5 {
		t.Fatalf("NA+EU fraction %.2f; catalog weights should skew there", frac)
	}
	for _, r := range []geo.Region{geo.RegionAsia, geo.RegionSouthAmerica, geo.RegionAfrica, geo.RegionOceania} {
		if regions[r] == 0 {
			t.Fatalf("region %s has no clients", r)
		}
	}
}

func TestQueriesOnDay(t *testing.T) {
	metros, isps := world(t)
	pop, err := Generate(metros, isps, DefaultConfig(6, 100))
	if err != nil {
		t.Fatal(err)
	}
	c := pop.Clients[0]
	q1 := c.QueriesOnDay(1, 0, false, 10)
	q2 := c.QueriesOnDay(1, 0, false, 10)
	if q1 != q2 {
		t.Fatal("QueriesOnDay not deterministic")
	}
	if q1 < 0 {
		t.Fatal("negative query count")
	}
	// Expected count scales with the multiplier.
	var loSum, hiSum int
	for _, c := range pop.Clients {
		loSum += c.QueriesOnDay(1, 2, false, 1)
		hiSum += c.QueriesOnDay(1, 2, false, 100)
	}
	if hiSum <= loSum {
		t.Fatal("query volume should scale with perVolumeQueries")
	}
	// Weekends should carry less traffic in aggregate.
	var wd, we float64
	for _, c := range pop.Clients {
		wd += float64(c.QueriesOnDay(1, 3, false, 50))
		we += float64(c.QueriesOnDay(1, 3, true, 50))
	}
	if we >= wd {
		t.Fatalf("weekend traffic %v should be below weekday %v", we, wd)
	}
	if math.Abs(we/wd-0.8) > 0.1 {
		t.Fatalf("weekend/weekday ratio %.2f, want near 0.8", we/wd)
	}
}

func BenchmarkGenerate(b *testing.B) {
	bb, err := topology.Build([]topology.SiteSpec{
		{Metro: "new-york", FrontEnd: true, Peering: true},
		{Metro: "london", FrontEnd: true, Peering: true},
	}, 2)
	if err != nil {
		b.Fatal(err)
	}
	metros := geo.World()
	isps := topology.BuildISPs(bb, metros, topology.DefaultISPModelConfig(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Generate(metros, isps, DefaultConfig(uint64(i), 2000)); err != nil {
			b.Fatal(err)
		}
	}
}

// TestGenerateRangeMatchesFull pins the sharding contract: a range build
// walks the whole population, so its materialized slice is bit-identical
// to the corresponding window of a full Generate, its TotalVolume is the
// full-population sum, and the observe hook sees every client in ID
// order.
func TestGenerateRangeMatchesFull(t *testing.T) {
	metros, isps := world(t)
	cfg := DefaultConfig(42, 5000)
	full, err := Generate(metros, isps, cfg)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := 1234, 3456
	var seen []Client
	shard, err := GenerateRange(metros, isps, cfg, lo, hi, func(c *Client) {
		seen = append(seen, *c)
	})
	if err != nil {
		t.Fatal(err)
	}
	if shard.Base != uint64(lo) {
		t.Fatalf("shard base %d, want %d", shard.Base, lo)
	}
	if len(shard.Clients) != hi-lo {
		t.Fatalf("shard holds %d clients, want %d", len(shard.Clients), hi-lo)
	}
	for i, c := range shard.Clients {
		if c != full.Clients[lo+i] {
			t.Fatalf("shard client %d differs from full client %d:\n%+v\nvs\n%+v", i, lo+i, c, full.Clients[lo+i])
		}
		if got := shard.Client(c.ID); *got != c {
			t.Fatalf("Client(%d) returned %+v, want %+v", c.ID, *got, c)
		}
	}
	if shard.TotalVolume != full.TotalVolume {
		t.Fatalf("shard TotalVolume %v, want full-population %v", shard.TotalVolume, full.TotalVolume)
	}
	if len(seen) != cfg.N {
		t.Fatalf("observe saw %d clients, want all %d", len(seen), cfg.N)
	}
	for i, c := range seen {
		if c != full.Clients[i] {
			t.Fatalf("observe's client %d differs from full client %d:\n%+v\nvs\n%+v", i, i, c, full.Clients[i])
		}
	}

	for _, b := range [][2]int{{-1, 5}, {5, 4}, {0, cfg.N + 1}} {
		if _, err := GenerateRange(metros, isps, cfg, b[0], b[1], nil); err == nil {
			t.Errorf("range [%d, %d) accepted", b[0], b[1])
		}
	}
}
