package bgp

import (
	"math"
	"testing"
	"time"

	"anycastcdn/internal/cdn"
	"anycastcdn/internal/geo"
	"anycastcdn/internal/topology"
	"anycastcdn/internal/xrand"
)

func buildWorld(t *testing.T) (*topology.Backbone, *topology.ISPModel) {
	t.Helper()
	specs := []topology.SiteSpec{
		{Metro: "new-york", FrontEnd: true, Peering: true},
		{Metro: "chicago", FrontEnd: true, Peering: true},
		{Metro: "dallas", FrontEnd: true, Peering: true},
		{Metro: "los-angeles", FrontEnd: true, Peering: true},
		{Metro: "seattle", FrontEnd: true, Peering: true},
		{Metro: "phoenix", FrontEnd: true, Peering: true},
		{Metro: "denver", FrontEnd: false, Peering: true},
		{Metro: "london", FrontEnd: true, Peering: true},
		{Metro: "frankfurt", FrontEnd: true, Peering: true},
		{Metro: "stockholm", FrontEnd: true, Peering: true},
		{Metro: "paris", FrontEnd: true, Peering: true},
	}
	b, err := topology.Build(specs, 3)
	if err != nil {
		t.Fatal(err)
	}
	isps := topology.BuildISPs(b, geo.World(), topology.DefaultISPModelConfig(1))
	return b, isps
}

func findISPWithPolicy(t *testing.T, isps *topology.ISPModel, country string, p topology.EgressPolicy) (topology.ISPID, bool) {
	t.Helper()
	for _, id := range isps.ForCountry(country) {
		if isps.ISP(id).Policy == p {
			return id, true
		}
	}
	return 0, false
}

func anyISP(t *testing.T, isps *topology.ISPModel, country string, p topology.EgressPolicy) topology.ISPID {
	t.Helper()
	// Search all countries if the requested one lacks the policy.
	if id, ok := findISPWithPolicy(t, isps, country, p); ok {
		return id
	}
	for _, isp := range isps.ISPs {
		if isp.Policy == p {
			return isp.ID
		}
	}
	t.Fatalf("no ISP with policy %v", p)
	return 0
}

func TestHotPotatoPicksNearest(t *testing.T) {
	b, isps := buildWorld(t)
	r := NewRouter(b, isps, 42, DefaultConfig())
	ispID := anyISP(t, isps, "US", topology.HotPotato)
	boston, _ := geo.FindMetro("boston")
	// Most prefixes should ingress at the nearest peering site (new-york);
	// a small minority at the second nearest due to HotPotatoMissRate.
	nearest, second, other := 0, 0, 0
	for p := uint64(0); p < 2000; p++ {
		c := Client{PrefixID: p, Point: boston.Point, ISP: ispID}
		ing := r.BaseIngress(c)
		switch b.Site(ing).Metro.Name {
		case "new-york":
			nearest++
		case "chicago":
			second++
		default:
			other++
		}
	}
	if frac := float64(nearest) / 2000; frac < 0.85 || frac > 0.97 {
		t.Fatalf("nearest-ingress fraction %.2f, want ~0.92", frac)
	}
	if second == 0 {
		t.Fatal("no hot-potato misses at all")
	}
	if other != 0 {
		t.Fatalf("%d clients ingressed somewhere unexpected", other)
	}
}

func TestCentralizedUsesHub(t *testing.T) {
	b, isps := buildWorld(t)
	r := NewRouter(b, isps, 42, DefaultConfig())
	ispID := anyISP(t, isps, "RU", topology.Centralized)
	isp := isps.ISP(ispID)
	moscow, _ := geo.FindMetro("moscow")
	c := Client{PrefixID: 1, Point: moscow.Point, ISP: ispID}
	ing := r.BaseIngress(c)
	found := false
	for _, h := range isp.Hubs {
		if ing == h {
			found = true
		}
	}
	if !found {
		t.Fatalf("centralized ISP ingressed at %v, not a hub %v", ing, isp.Hubs)
	}
}

func TestTieBreakStableAndWithinTopK(t *testing.T) {
	b, isps := buildWorld(t)
	cfg := DefaultConfig()
	r := NewRouter(b, isps, 42, cfg)
	ispID := anyISP(t, isps, "US", topology.TieBreak)
	denverMetro, _ := geo.FindMetro("denver")
	counts := map[string]int{}
	for p := uint64(0); p < 3000; p++ {
		c := Client{PrefixID: p, Point: denverMetro.Point, ISP: ispID}
		ing := r.BaseIngress(c)
		if ing != r.BaseIngress(c) {
			t.Fatal("tie-break not stable")
		}
		counts[b.Site(ing).Metro.Name]++
	}
	if len(counts) < 2 || len(counts) > cfg.TieBreakTopK {
		t.Fatalf("tie-break spread over %d sites, want 2..%d: %v", len(counts), cfg.TieBreakTopK, counts)
	}
	// All chosen sites must be among the K nearest peering sites.
	ranked := b.RankPeeringByAir(denverMetro.Point)
	allowed := map[string]bool{}
	for i := 0; i < cfg.TieBreakTopK; i++ {
		allowed[b.Site(ranked[i]).Metro.Name] = true
	}
	for name := range counts {
		if !allowed[name] {
			t.Fatalf("tie-break chose %s outside top-%d", name, cfg.TieBreakTopK)
		}
	}
}

func TestAssignHotPotatoFrontEnd(t *testing.T) {
	b, isps := buildWorld(t)
	r := NewRouter(b, isps, 42, DefaultConfig())
	// Denver is peering-only: ingress there must be served by a nearby
	// front-end over the backbone at positive distance (the paper's
	// "router A has a longer intradomain route" case).
	var denver topology.SiteID = topology.InvalidSite
	for _, s := range b.Sites {
		if s.Metro.Name == "denver" {
			denver = s.ID
		}
	}
	c := Client{PrefixID: 5, Point: b.Site(denver).Metro.Point}
	a := r.Assign(c, denver)
	if a.FrontEnd == denver {
		t.Fatal("peering-only site cannot be a front-end")
	}
	if a.BackboneKm <= 0 {
		t.Fatal("backbone distance should be positive from peering-only ingress")
	}
	if !b.Site(a.FrontEnd).FrontEnd {
		t.Fatal("assignment target is not a front-end")
	}
}

func TestUnicastAssignment(t *testing.T) {
	b, isps := buildWorld(t)
	r := NewRouter(b, isps, 42, DefaultConfig())
	boston, _ := geo.FindMetro("boston")
	c := Client{PrefixID: 1, Point: boston.Point}
	fe := b.FrontEnds()[0]
	a := r.UnicastAssignment(c, fe)
	if a.FrontEnd != fe || a.Ingress != fe {
		t.Fatal("unicast must ingress at the front-end")
	}
	if a.BackboneKm != 0 {
		t.Fatal("unicast path has no backbone leg")
	}
	want := geo.DistanceKm(boston.Point, b.Site(fe).Metro.Point)
	if math.Abs(a.AirKm.Float()-want.Float()) > 1e-9 {
		t.Fatalf("unicast air distance %v, want %v", a.AirKm, want)
	}
}

// TestUnicastAssignmentFromMatchesUnicastAssignment checks the
// precomputed unicast path against UnicastAssignment, bit for bit, for
// clients of every ISP of the default deployment's model (every policy,
// single-interconnect centralized ISPs and multi-hub ones included) and
// of an ISP outside the model, at every front-end.
func TestUnicastAssignmentFromMatchesUnicastAssignment(t *testing.T) {
	dep, err := cdn.BuildDefault()
	if err != nil {
		t.Fatal(err)
	}
	b := dep.Backbone
	isps := topology.BuildISPs(b, geo.World(), topology.DefaultISPModelConfig(1))
	r := NewRouter(b, isps, 42, DefaultConfig())
	fes := b.FrontEnds()
	rs := xrand.New(5)
	hubbedClients, multiHub := 0, 0
	for id := 0; id <= isps.Len(); id++ {
		if id < isps.Len() {
			isp := isps.ISP(topology.ISPID(id))
			if isp.Policy == topology.Centralized && isp.SingleInterconnect && len(isp.Hubs) > 1 {
				multiHub++
			}
		}
		for k := 0; k < 8; k++ {
			c := Client{
				PrefixID: uint64(id*8 + k),
				Point:    geo.Point{Lat: rs.Float64()*140 - 60, Lon: rs.Float64()*360 - 180},
				ISP:      topology.ISPID(id),
			}
			u := r.UnicastClient(c)
			if u.hub != topology.InvalidSite {
				hubbedClients++
			}
			for _, fe := range fes {
				want := r.UnicastAssignment(c, fe)
				got := r.UnicastAssignmentFrom(&u, fe)
				if got != want || math.Float64bits(got.AirKm.Float()) != math.Float64bits(want.AirKm.Float()) {
					t.Fatalf("ISP %d client %v front-end %d: precomputed %+v, UnicastAssignment %+v", id, c.Point, fe, got, want)
				}
			}
		}
	}
	if hubbedClients == 0 || multiHub == 0 {
		t.Fatalf("%d clients detoured through a hub, %d single-interconnect ISPs have several hubs; want both", hubbedClients, multiHub)
	}
}

func TestWeekdayCalendar(t *testing.T) {
	b, isps := buildWorld(t)
	r := NewRouter(b, isps, 42, DefaultConfig())
	if r.Weekday(0) != time.Wednesday {
		t.Fatalf("day 0 = %v, want Wednesday", r.Weekday(0))
	}
	if r.Weekday(3) != time.Saturday || !r.IsWeekend(3) {
		t.Fatalf("day 3 = %v, want Saturday/weekend", r.Weekday(3))
	}
	if r.IsWeekend(5) {
		t.Fatal("day 5 (Monday) should not be weekend")
	}
	if r.Weekday(7) != time.Wednesday {
		t.Fatal("weekday should wrap weekly")
	}
}

func TestChurnWeekendQuiet(t *testing.T) {
	b, isps := buildWorld(t)
	r := NewRouter(b, isps, 42, DefaultConfig())
	boston, _ := geo.FindMetro("boston")
	weekdaySwitches, weekendSwitches := 0, 0
	const n = 30000
	for p := uint64(0); p < n; p++ {
		c := Client{PrefixID: p, Point: boston.Point}
		if r.SwitchedOnDay(c, 0) { // Wednesday
			weekdaySwitches++
		}
		if r.SwitchedOnDay(c, 3) { // Saturday
			weekendSwitches++
		}
	}
	wd := float64(weekdaySwitches) / n
	we := float64(weekendSwitches) / n
	if wd < 0.03 || wd > 0.12 {
		t.Fatalf("weekday switch rate %.3f outside plausible range", wd)
	}
	if we > wd*0.25 {
		t.Fatalf("weekend switch rate %.3f not much lower than weekday %.3f", we, wd)
	}
}

func TestIngressScheduleConsistency(t *testing.T) {
	b, isps := buildWorld(t)
	r := NewRouter(b, isps, 42, DefaultConfig())
	boston, _ := geo.FindMetro("boston")
	c := Client{PrefixID: 77, Point: boston.Point, ISP: 0}
	s1 := r.IngressSchedule(c, 30)
	s2 := r.IngressSchedule(c, 30)
	for d := range s1 {
		if s1[d] != s2[d] {
			t.Fatal("ingress schedule not deterministic")
		}
	}
	// The schedule only changes on switch days.
	for d := 1; d < 30; d++ {
		if s1[d].Ingress() != s1[d-1].Ingress() && !r.SwitchedOnDay(c, d) {
			t.Fatalf("ingress changed on day %d without a switch event", d)
		}
	}
	// Across clients of every policy: each entry's switch bit is
	// SwitchedOnDay's answer, and IngressScheduleInto writes every entry
	// of a dirty buffer with IngressSchedule's answer for any length —
	// the tracer's IngressSchedule(c, day+1) relies on shorter schedules
	// being prefixes of the month's.
	buf := make([]ScheduleEntry, 30)
	switches := 0
	for p := uint64(0); p < 300; p++ {
		c := Client{PrefixID: p, Point: boston.Point, ISP: topology.ISPID(p % uint64(isps.Len()))}
		month := r.IngressSchedule(c, 30)
		for d, e := range month {
			if e.Switched() != r.SwitchedOnDay(c, d) {
				t.Fatalf("prefix %d day %d: switch bit %v, SwitchedOnDay %v", p, d, e.Switched(), r.SwitchedOnDay(c, d))
			}
			if e.Switched() {
				switches++
			}
		}
		for _, days := range []int{1, 7, 30} {
			for d := range buf {
				buf[d] = ^ScheduleEntry(0)
			}
			r.IngressScheduleInto(c, buf[:days])
			for d := 0; d < days; d++ {
				if buf[d] != month[d] {
					t.Fatalf("prefix %d day %d of %d: IngressScheduleInto wrote %#x, IngressSchedule answers %#x", p, d, days, buf[d], month[d])
				}
			}
		}
	}
	if switches == 0 {
		t.Fatal("no switch bits set across 300 client-months")
	}
}

// TestScheduleEntryFitsCatalog guards the entry's 15-bit ingress field:
// topology.Build rejects duplicate metros, so no deployment has more
// sites than the geo catalog has metros, and a catalog grown past the
// field must fail here rather than corrupt schedules.
func TestScheduleEntryFitsCatalog(t *testing.T) {
	if n := len(geo.World()); n > scheduleSites {
		t.Fatalf("geo catalog has %d metros; a schedule entry holds %d sites", n, scheduleSites)
	}
	for _, site := range []topology.SiteID{0, 1, scheduleSites - 1} {
		for _, sw := range []bool{false, true} {
			e := ScheduleEntry(site)
			if sw {
				e |= entrySwitched
			}
			if e.Ingress() != site || e.Switched() != sw {
				t.Fatalf("entry %#x decodes to (%d, %v), want (%d, %v)", e, e.Ingress(), e.Switched(), site, sw)
			}
		}
	}
}

// TestIngressScheduleReturnsBaseIngress pins the base ingress the
// schedule builder returns (the streaming simulation seeds each client's
// pre-day-0 front-end from it) to BaseIngress, for every egress policy.
func TestIngressScheduleReturnsBaseIngress(t *testing.T) {
	b, isps := buildWorld(t)
	r := NewRouter(b, isps, 42, DefaultConfig())
	sched := make([]ScheduleEntry, 30)
	for _, p := range []topology.EgressPolicy{topology.TieBreak, topology.HotPotato, topology.Centralized} {
		ispID := anyISP(t, isps, "US", p)
		for i, m := range geo.World() {
			c := Client{PrefixID: uint64(i), Point: m.Point, ISP: ispID}
			if got, want := r.IngressScheduleInto(c, sched), r.BaseIngress(c); got != want {
				t.Fatalf("%v client at %s: IngressScheduleInto returned base %d, BaseIngress %d", p, m.Name, got, want)
			}
		}
	}
}

func TestSwitchChangesIngress(t *testing.T) {
	b, isps := buildWorld(t)
	r := NewRouter(b, isps, 42, DefaultConfig())
	boston, _ := geo.FindMetro("boston")
	// Find clients with a switch event after day 0 and verify the ingress
	// actually changes that day.
	checked := 0
	for p := uint64(0); p < 5000 && checked < 50; p++ {
		c := Client{PrefixID: p, Point: boston.Point, ISP: 0}
		sched := r.IngressSchedule(c, 14)
		for d := 1; d < 14; d++ {
			if r.SwitchedOnDay(c, d) {
				if sched[d].Ingress() == sched[d-1].Ingress() {
					t.Fatalf("prefix %d day %d: switch event but same ingress", p, d)
				}
				checked++
				break
			}
		}
	}
	if checked == 0 {
		t.Fatal("no switch events found to check")
	}
}

func TestSwitchTargetsMostlyNearby(t *testing.T) {
	b, isps := buildWorld(t)
	r := NewRouter(b, isps, 42, DefaultConfig())
	boston, _ := geo.FindMetro("boston")
	var dists []float64
	for p := uint64(0); p < 20000; p++ {
		c := Client{PrefixID: p, Point: boston.Point, ISP: 0}
		ingress := r.IngressSchedule(c, 14)
		for d := 1; d < 14; d++ {
			from, to := r.Assign(c, ingress[d-1].Ingress()).FrontEnd, r.Assign(c, ingress[d].Ingress()).FrontEnd
			if to != from {
				a := b.Site(from).Metro.Point
				bb := b.Site(to).Metro.Point
				dists = append(dists, geo.DistanceKm(a, bb).Float())
			}
		}
	}
	if len(dists) < 100 {
		t.Fatalf("only %d front-end switches observed", len(dists))
	}
	med := medianOf(dists)
	// Front-end switches should be to relatively nearby alternatives
	// (paper: median 483 km) — certainly not trans-oceanic.
	if med > 2500 {
		t.Fatalf("median switch distance %.0f km; switches should be nearby", med)
	}
}

func medianOf(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
	return s[len(s)/2]
}

func BenchmarkAssignmentSchedule(b *testing.B) {
	specs := []topology.SiteSpec{
		{Metro: "new-york", FrontEnd: true, Peering: true},
		{Metro: "chicago", FrontEnd: true, Peering: true},
		{Metro: "dallas", FrontEnd: true, Peering: true},
		{Metro: "london", FrontEnd: true, Peering: true},
	}
	bb, err := topology.Build(specs, 2)
	if err != nil {
		b.Fatal(err)
	}
	isps := topology.BuildISPs(bb, geo.World(), topology.DefaultISPModelConfig(1))
	r := NewRouter(bb, isps, 42, DefaultConfig())
	boston, _ := geo.FindMetro("boston")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := Client{PrefixID: uint64(i), Point: boston.Point, ISP: 0}
		for _, e := range r.IngressSchedule(c, 30) {
			_ = r.Assign(c, e.Ingress())
		}
	}
}
