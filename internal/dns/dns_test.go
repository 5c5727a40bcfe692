package dns

import (
	"sync"
	"testing"

	"anycastcdn/internal/cdn"
	"anycastcdn/internal/clients"
	"anycastcdn/internal/geo"
	"anycastcdn/internal/topology"
	"anycastcdn/internal/xrand"
)

type fixture struct {
	dep    *cdn.Deployment
	isps   *topology.ISPModel
	popCfg clients.Config
	pop    *clients.Population
	metro  []geo.Metro
}

func setup(t *testing.T) fixture {
	t.Helper()
	dep, err := cdn.BuildDefault()
	if err != nil {
		t.Fatal(err)
	}
	metros := geo.World()
	isps := topology.BuildISPs(dep.Backbone, metros, topology.DefaultISPModelConfig(1))
	popCfg := clients.DefaultConfig(2, 4000)
	pop, err := clients.Generate(metros, isps, popCfg)
	if err != nil {
		t.Fatal(err)
	}
	return fixture{dep: dep, isps: isps, popCfg: popCfg, pop: pop, metro: metros}
}

// mapPopulation maps the population popCfg generates, storing the
// assignments of [lo, hi), as the world builder walks it: block by block,
// each block's clients drawn and keyed on several goroutines, then
// interned in ID order.
func mapPopulation(tb testing.TB, isps *topology.ISPModel, metros []geo.Metro, popCfg clients.Config, cfg MapperConfig, lo, hi uint64) *Mapping {
	tb.Helper()
	g, err := clients.NewGenerator(metros, isps, popCfg, int(lo), int(hi))
	if err != nil {
		tb.Fatal(err)
	}
	rm, err := NewRangeMapper(isps, metros, cfg, lo, hi)
	if err != nil {
		tb.Fatal(err)
	}
	const workers = 3
	keys := make([]ResolverKey, clients.BlockSize)
	for {
		blk, err := g.Next()
		if err != nil {
			tb.Fatal(err)
		}
		if len(blk) == 0 {
			return rm.Mapping()
		}
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j := w; j < len(blk); j += workers {
					g.Draw(&blk[j])
					keys[j] = rm.Key(&blk[j])
				}
			}()
		}
		wg.Wait()
		for j := range blk {
			rm.Intern(blk[j].ID, keys[j])
		}
	}
}

// buildMapping maps the fixture's whole population.
func buildMapping(t *testing.T, f fixture, cfg MapperConfig) *Mapping {
	t.Helper()
	return mapPopulation(t, f.isps, f.metro, f.popCfg, cfg, 0, uint64(f.popCfg.N))
}

func TestBuildMappingSplit(t *testing.T) {
	f := setup(t)
	cfg := DefaultMapperConfig(3)
	mp := buildMapping(t, f, cfg)
	if len(mp.ClientLDNS) != len(f.pop.Clients) {
		t.Fatalf("mapping covers %d clients, want %d", len(mp.ClientLDNS), len(f.pop.Clients))
	}
	kinds := map[LDNSKind]int{}
	for _, c := range f.pop.Clients {
		l := mp.Resolver(c.ID)
		kinds[l.Kind]++
		if !l.Point.Valid() {
			t.Fatalf("resolver %s has invalid point", l.Name)
		}
	}
	n := float64(len(f.pop.Clients))
	if frac := float64(kinds[Public]) / n; frac < 0.05 || frac > 0.12 {
		t.Fatalf("public resolver fraction %.3f, want ~0.08", frac)
	}
	if frac := float64(kinds[ISPHub]) / n; frac < 0.06 || frac > 0.17 {
		t.Fatalf("hub resolver fraction %.3f, want ~0.11", frac)
	}
	if kinds[ISPLocal] == 0 {
		t.Fatal("no local resolvers")
	}
}

func TestMostClientsNearLDNS(t *testing.T) {
	f := setup(t)
	mp := buildMapping(t, f, DefaultMapperConfig(3))
	near, nonPublic := 0, 0
	for _, c := range f.pop.Clients {
		l := mp.Resolver(c.ID)
		if l.Kind == Public {
			continue
		}
		nonPublic++
		if geo.DistanceKm(c.Point, l.Point) <= 500 {
			near++
		}
	}
	frac := float64(near) / float64(nonPublic)
	// Paper: only 11-12% of non-public demand is >500km from its LDNS.
	if frac < 0.80 {
		t.Fatalf("only %.2f of non-public clients within 500 km of LDNS", frac)
	}
	if frac > 0.99 {
		t.Fatalf("%.2f within 500 km; some hub clients should be distant", frac)
	}
}

func TestResolversShared(t *testing.T) {
	f := setup(t)
	mp := buildMapping(t, f, DefaultMapperConfig(3))
	if len(mp.Resolvers) >= len(f.pop.Clients) {
		t.Fatalf("%d resolvers for %d clients; resolvers must be shared",
			len(mp.Resolvers), len(f.pop.Clients))
	}
	// Public resolvers must serve clients from more than one metro.
	metrosByLDNS := map[LDNSID]map[string]bool{}
	for _, c := range f.pop.Clients {
		l := mp.Resolver(c.ID)
		if l.Kind != Public {
			continue
		}
		if metrosByLDNS[l.ID] == nil {
			metrosByLDNS[l.ID] = map[string]bool{}
		}
		metrosByLDNS[l.ID][c.Metro] = true
	}
	multi := 0
	for _, ms := range metrosByLDNS {
		if len(ms) > 1 {
			multi++
		}
	}
	if multi == 0 {
		t.Fatal("no public resolver serves clients of multiple metros")
	}
}

func TestBuildMappingDeterministic(t *testing.T) {
	f := setup(t)
	m1 := buildMapping(t, f, DefaultMapperConfig(7))
	m2 := buildMapping(t, f, DefaultMapperConfig(7))
	for i := range m1.ClientLDNS {
		if m1.ClientLDNS[i] != m2.ClientLDNS[i] {
			t.Fatalf("client %d mapped differently across identical builds", i)
		}
	}
}

func TestAuthorityCandidates(t *testing.T) {
	f := setup(t)
	auth := NewAuthority(f.dep, geo.PerfectDB(), 10)
	boston, _ := geo.FindMetro("boston")
	l := LDNS{ID: 1, Name: "test", Kind: ISPLocal, Point: boston.Point}
	cands := auth.Candidates(l)
	if len(cands) != 10 {
		t.Fatalf("got %d candidates, want 10", len(cands))
	}
	seen := map[topology.SiteID]bool{}
	prev := -1.0
	for _, s := range cands {
		if seen[s] {
			t.Fatalf("duplicate candidate %d", s)
		}
		seen[s] = true
		site := f.dep.Backbone.Site(s)
		if !site.FrontEnd {
			t.Fatalf("candidate %s is not a front-end", site.Metro.Name)
		}
		d := geo.DistanceKm(boston.Point, site.Metro.Point).Float()
		if d < prev {
			t.Fatal("candidates not sorted by distance")
		}
		prev = d
	}
	// Boston hosts a front-end in the default deployment: candidate 0
	// must be boston itself with a perfect geolocation DB.
	if f.dep.Backbone.Site(cands[0]).Metro.Name != "boston" {
		t.Fatalf("closest candidate = %s, want boston", f.dep.Backbone.Site(cands[0]).Metro.Name)
	}
}

func TestAuthorityCandidateCacheStable(t *testing.T) {
	f := setup(t)
	auth := NewAuthority(f.dep, geo.PerfectDB(), 10)
	l := LDNS{ID: 5, Point: geo.Point{Lat: 50, Lon: 10}}
	a := auth.Candidates(l)
	b := auth.Candidates(l)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("candidate cache unstable")
		}
	}
}

func TestSelectBeaconTargets(t *testing.T) {
	f := setup(t)
	auth := NewAuthority(f.dep, geo.PerfectDB(), 10)
	paris, _ := geo.FindMetro("paris")
	l := LDNS{ID: 2, Point: paris.Point}
	cands := auth.Candidates(l)
	candSet := map[topology.SiteID]int{}
	for rank, s := range cands {
		candSet[s] = rank
	}
	rs := xrand.New(11)
	pickCounts := map[topology.SiteID]int{}
	for i := 0; i < 20000; i++ {
		tg := auth.SelectBeaconTargets(l, rs)
		if tg.Closest != cands[0] {
			t.Fatal("closest target is not candidate 0")
		}
		if tg.Random[0] == tg.Random[1] {
			t.Fatal("random targets must differ")
		}
		for _, r := range tg.Random {
			rank, ok := candSet[r]
			if !ok {
				t.Fatalf("random target %d outside candidate set", r)
			}
			if rank == 0 {
				t.Fatal("random target duplicates the closest candidate")
			}
			pickCounts[r]++
		}
	}
	// Nearer candidates must be picked more often than distant ones.
	if pickCounts[cands[1]] <= pickCounts[cands[9]] {
		t.Fatalf("2nd closest picked %d times, 10th %d; want distance weighting",
			pickCounts[cands[1]], pickCounts[cands[9]])
	}
	// Every candidate should appear occasionally (measurement diversity).
	for _, s := range cands[1:] {
		if pickCounts[s] == 0 {
			t.Fatalf("candidate %d never selected", s)
		}
	}
}

func TestSelectBeaconTargetsTinyDeployments(t *testing.T) {
	b, err := topology.Build([]topology.SiteSpec{
		{Metro: "london", FrontEnd: true, Peering: true},
		{Metro: "paris", FrontEnd: true, Peering: true},
	}, 2)
	if err != nil {
		t.Fatal(err)
	}
	dep, err := cdn.NewDeployment(b)
	if err != nil {
		t.Fatal(err)
	}
	auth := NewAuthority(dep, geo.PerfectDB(), 10)
	l := LDNS{ID: 1, Point: geo.Point{Lat: 51, Lon: 0}}
	rs := xrand.New(1)
	tg := auth.SelectBeaconTargets(l, rs)
	if tg.Closest == 0 && tg.Random[0] == 0 && tg.Random[1] == 0 {
		t.Fatal("targets not populated")
	}
}

func TestGeolocationErrorPerturbsCandidates(t *testing.T) {
	f := setup(t)
	perfect := NewAuthority(f.dep, geo.PerfectDB(), 10)
	noisy := NewAuthority(f.dep, geo.NewDB(1, 200, 0.1, 8000), 10)
	diff := 0
	for i := 0; i < 200; i++ {
		pt := geo.Point{Lat: 30 + float64(i%40), Lon: -100 + float64(i)}
		if !pt.Valid() {
			continue
		}
		l := LDNS{ID: LDNSID(i), Point: pt}
		a := perfect.Candidates(l)
		b := noisy.Candidates(l)
		if a[0] != b[0] {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("a noisy geolocation DB should sometimes change the closest candidate")
	}
}

func TestLDNSKindString(t *testing.T) {
	if ISPLocal.String() != "isp-local" || ISPHub.String() != "isp-hub" || Public.String() != "public" {
		t.Fatal("kind names wrong")
	}
	if LDNSKind(9).String() == "" {
		t.Fatal("unknown kind should render")
	}
}

func BenchmarkSelectBeaconTargets(b *testing.B) {
	dep, err := cdn.BuildDefault()
	if err != nil {
		b.Fatal(err)
	}
	auth := NewAuthority(dep, geo.PerfectDB(), 10)
	l := LDNS{ID: 1, Point: geo.Point{Lat: 40, Lon: -80}}
	rs := xrand.New(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = auth.SelectBeaconTargets(l, rs)
	}
}

// TestRangeMapperMatchesBuildMapping pins the distributed mapping
// contract: a RangeMapper that keys and interns every client in ID order
// produces the same resolver catalog — contents AND interned IDs, which
// key the authority's geolocation draws — as the full mapping, plus
// exactly the range's window of assignments.
func TestRangeMapperMatchesBuildMapping(t *testing.T) {
	f := setup(t)
	cfg := DefaultMapperConfig(3)
	full := buildMapping(t, f, cfg)
	lo, hi := uint64(700), uint64(2900)
	mp := mapPopulation(t, f.isps, f.metro, f.popCfg, cfg, lo, hi)
	if mp.Base != lo {
		t.Fatalf("mapping base %d, want %d", mp.Base, lo)
	}
	if len(mp.Resolvers) != len(full.Resolvers) {
		t.Fatalf("range mapper interned %d resolvers, full build %d", len(mp.Resolvers), len(full.Resolvers))
	}
	for i := range full.Resolvers {
		if mp.Resolvers[i] != full.Resolvers[i] {
			t.Fatalf("resolver %d differs:\n%+v\nvs\n%+v", i, mp.Resolvers[i], full.Resolvers[i])
		}
	}
	if uint64(len(mp.ClientLDNS)) != hi-lo {
		t.Fatalf("mapping covers %d clients, want %d", len(mp.ClientLDNS), hi-lo)
	}
	for id := lo; id < hi; id++ {
		if mp.Resolver(id) != full.Resolver(id) {
			t.Fatalf("client %d: range resolver %+v, full %+v", id, mp.Resolver(id), full.Resolver(id))
		}
	}
	if _, err := NewRangeMapper(f.isps, f.metro, cfg, 5, 4); err == nil {
		t.Error("inverted mapper range accepted")
	}
}
