package bgp

import (
	"testing"

	"anycastcdn/internal/cdn"
	"anycastcdn/internal/geo"
	"anycastcdn/internal/topology"
	"anycastcdn/internal/units"
	"anycastcdn/internal/xrand"
)

// defaultWorld is the default deployment's backbone (70 peering sites)
// with the default ISP model.
func defaultWorld(t testing.TB) (*topology.Backbone, *topology.ISPModel) {
	t.Helper()
	dep, err := cdn.BuildDefault()
	if err != nil {
		t.Fatal(err)
	}
	return dep.Backbone, topology.BuildISPs(dep.Backbone, geo.World(), topology.DefaultISPModelConfig(1))
}

// churnyConfig switches every client on most days, so a few thousand
// schedules make enough switch draws that some land past scheduleDepth.
func churnyConfig(topK int) Config {
	cfg := DefaultConfig()
	cfg.TieBreakTopK = topK
	cfg.StableFrac, cfg.ModerateFrac, cfg.FlappyRate = 0, 0, 1
	return cfg
}

// scatteredClient places client i a few hundred km off a catalog metro.
func scatteredClient(i int, isp topology.ISPID) Client {
	ms := geo.World()
	var rs xrand.Stream
	rs.Reseed(uint64(i) + 1)
	o := geo.NewOrigin(ms[i%len(ms)].Point)
	return Client{
		PrefixID: uint64(i),
		Point:    o.Offset(units.Kilometers(rs.Float64()*600), rs.Float64()*360),
		ISP:      isp,
	}
}

// TestPrefixIngressMatchesFullDraw pins the argument that lets the
// schedule builder draw switch targets from a prefix of the peering
// ranking: at every prefix length m in [1, n], prefixIngress either
// declines or returns exactly what alternativeIngress draws over the
// full ranking, with the current ingress inside the prefix, past it, and
// not a peering site at all. It runs on the default deployment and on
// 11- and 4-site ones, whose totals differ by the geometric terms that
// round away at 70 sites.
func TestPrefixIngressMatchesFullDraw(t *testing.T) {
	// Every site of both deployments peers; a backbone-only one stands
	// in for a centralized ISP's hub that does not.
	moscow := topology.SiteSpec{Metro: "moscow"}
	small := []topology.SiteSpec{
		{Metro: "new-york", FrontEnd: true, Peering: true},
		{Metro: "chicago", FrontEnd: true, Peering: true},
		{Metro: "dallas", FrontEnd: true, Peering: true},
		{Metro: "los-angeles", FrontEnd: true, Peering: true},
		{Metro: "seattle", FrontEnd: true, Peering: true},
		{Metro: "phoenix", FrontEnd: true, Peering: true},
		{Metro: "denver", Peering: true},
		{Metro: "london", FrontEnd: true, Peering: true},
		{Metro: "frankfurt", FrontEnd: true, Peering: true},
		{Metro: "stockholm", FrontEnd: true, Peering: true},
		{Metro: "paris", FrontEnd: true, Peering: true},
		moscow,
	}
	tiny := []topology.SiteSpec{small[0], small[1], small[7], small[8], moscow}
	for _, specs := range [][]topology.SiteSpec{append(cdn.DefaultSiteSpecs(), moscow), small, tiny} {
		b, err := topology.Build(specs, 3)
		if err != nil {
			t.Fatal(err)
		}
		r := NewRouter(b, topology.BuildISPs(b, geo.World(), topology.DefaultISPModelConfig(1)), 42, DefaultConfig())
		n := len(b.PeeringSites())
		hub := topology.SiteID(b.NumSites() - 1)
		if b.Site(hub).Peering {
			t.Fatal("moscow site peers")
		}
		var accepted, declined, acceptedDeep int
		// About one draw in 5,000 lands past rank 8.
		for i := 0; i < 5000; i++ {
			c := scatteredClient(i, 0)
			ranked := b.RankPeeringByAir(c.Point)
			currents := []topology.SiteID{
				ranked[0], ranked[1], ranked[i%n], ranked[(3+i)%n], // nearest, or anywhere
				ranked[n-1], ranked[max(n-8, 0)+i%min(n, 8)], // among the farthest
				hub, // not a peering site
			}
			for ci, cur := range currents {
				day := i*len(currents) + ci
				want := r.alternativeIngress(ranked, c, day, cur)
				for m := 1; m <= n; m++ {
					got, ok := r.prefixIngress(ranked[:m], c, day, cur)
					if !ok {
						// Over the whole ranking only a uniform that rounds
						// the target up to the total declines, and no
						// case here draws one.
						if m == n {
							t.Fatalf("%d peering sites, client %d day %d current %d: the full ranking declined", n, i, day, cur)
						}
						declined++
						continue
					}
					accepted++
					if got != want {
						t.Fatalf("%d peering sites, client %d day %d current %d prefix %d: drew %d, full ranking draws %d", n, i, day, cur, m, got, want)
					}
					if rankOf(ranked, got) >= scheduleDepth {
						acceptedDeep++
					}
				}
			}
		}
		if declined == 0 || accepted == 0 || (n > scheduleDepth && acceptedDeep == 0) {
			t.Fatalf("%d peering sites: draws not exercised: %d accepted (%d past rank %d), %d declined", n, accepted, acceptedDeep, scheduleDepth, declined)
		}
	}
}

func rankOf(ranked []topology.SiteID, s topology.SiteID) int {
	for i, x := range ranked {
		if x == s {
			return i
		}
	}
	return -1
}

// referenceSchedule is the full-ranking schedule builder: rank every
// peering site, resolve the base ingress from the full ranking, and draw
// each switch with alternativeIngress over it.
func referenceSchedule(r *Router, c Client, days int) ([]ScheduleEntry, topology.SiteID) {
	isp := r.isps.ISP(c.ISP)
	ranked := r.backbone.RankPeeringByAir(c.Point)
	var base topology.SiteID
	if isp.Policy == topology.Centralized {
		base, _ = r.nearestHub(c, isp)
	} else {
		base = r.baseIngressRanked(c, isp, ranked)
	}
	out := make([]ScheduleEntry, days)
	cur := base
	for d := range out {
		e := ScheduleEntry(0)
		if r.SwitchedOnDay(c, d) {
			cur = r.alternativeIngress(ranked, c, d, cur)
			e = entrySwitched
		}
		out[d] = e | ScheduleEntry(cur)
	}
	return out, base
}

// TestIngressScheduleMatchesFullRanking: the prefix-ranked schedule
// builder returns exactly the full-ranking reference's schedule and base
// ingress, for clients of every egress policy, at tie-break depths below,
// at and past scheduleDepth and past the peering count — including
// switch draws that land past the prefix.
func TestIngressScheduleMatchesFullRanking(t *testing.T) {
	b, isps := defaultWorld(t)
	n := len(b.PeeringSites())
	const days = 30
	sched := make([]ScheduleEntry, days)
	for _, topK := range []int{1, 4, 9, n + 1} {
		r := NewRouter(b, isps, 7, churnyConfig(topK))
		deep := 0
		for _, policy := range []topology.EgressPolicy{topology.HotPotato, topology.TieBreak, topology.Centralized} {
			var ids []topology.ISPID
			for _, isp := range isps.ISPs {
				if isp.Policy == policy {
					ids = append(ids, isp.ID)
				}
			}
			if len(ids) == 0 {
				t.Fatalf("ISP model has no %v ISP", policy)
			}
			for i := 0; i < 600; i++ {
				c := scatteredClient(i, ids[i%len(ids)])
				want, wantBase := referenceSchedule(r, c, days)
				if base := r.IngressScheduleInto(c, sched); base != wantBase {
					t.Fatalf("topK %d %v client %d: base ingress %d, reference %d", topK, policy, i, base, wantBase)
				}
				ranked := b.RankPeeringByAir(c.Point)
				for d := range want {
					if sched[d] != want[d] {
						t.Fatalf("topK %d %v client %d day %d: entry %#x, reference %#x", topK, policy, i, d, sched[d], want[d])
					}
					if want[d].Switched() && rankOf(ranked, want[d].Ingress()) >= scheduleDepth {
						deep++
					}
				}
			}
		}
		if deep == 0 {
			t.Errorf("topK %d: no switch draw landed past rank %d; the full-ranking fallback went untested", topK, scheduleDepth)
		}
	}
}

var scheduleSink topology.SiteID

// BenchmarkIngressSchedule builds one client's 30-day schedule on the
// default deployment into a reused buffer, as the stream's schedule pass
// does, cycling through catalog-metro clients of every ISP.
func BenchmarkIngressSchedule(b *testing.B) {
	bb, isps := defaultWorld(b)
	r := NewRouter(bb, isps, 42, DefaultConfig())
	clients := make([]Client, 0, 4*isps.Len())
	for i := 0; i < cap(clients); i++ {
		clients = append(clients, scatteredClient(i, topology.ISPID(i%isps.Len())))
	}
	sched := make([]ScheduleEntry, 30)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := clients[i%len(clients)]
		c.PrefixID = uint64(i)
		scheduleSink = r.IngressScheduleInto(c, sched)
	}
}
