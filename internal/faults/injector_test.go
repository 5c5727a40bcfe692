package faults_test

import (
	"math"
	"strings"
	"testing"

	"anycastcdn/internal/bgp"
	"anycastcdn/internal/dns"
	"anycastcdn/internal/faults"
	"anycastcdn/internal/geo"
	"anycastcdn/internal/testutil"
	"anycastcdn/internal/topology"
)

// feMetro and peeringMetro pick resolvable targets from the shared world.
func feMetro(t *testing.T) string {
	t.Helper()
	w := testutil.SmallWorld(t)
	for _, s := range w.Deployment.Backbone.Sites {
		if s.FrontEnd {
			return s.Metro.Name
		}
	}
	t.Fatal("deployment has no front-end")
	return ""
}

func TestNewInjectorResolvesTargets(t *testing.T) {
	w := testutil.SmallWorld(t)
	sc, err := faults.ParseScenario(
		"drain " + feMetro(t) + " day=1\nldns-outage europe day=2\ninflate asia day=3 ms=10")
	if err != nil {
		t.Fatal(err)
	}
	inj, err := faults.NewInjector(sc, w.Deployment, w.Mapping, w.Metros)
	if err != nil {
		t.Fatal(err)
	}
	for day := 0; day <= 4; day++ {
		if want := day >= 1 && day <= 3; inj.ActiveOn(day) != want {
			t.Fatalf("ActiveOn(%d) = %v, want %v", day, !want, want)
		}
	}
}

func TestNewInjectorTargetErrors(t *testing.T) {
	w := testutil.SmallWorld(t)
	cases := []struct {
		name, text, wantErr string
	}{
		{"unknown metro", "drain atlantis day=1", "not a deployment metro"},
		{"unknown region", "inflate atlantis day=1 ms=5", "not a world region"},
		{"unknown outage region", "ldns-outage nowhere day=1", "not a world region"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sc, err := faults.ParseScenario(tc.text)
			if err != nil {
				t.Fatal(err)
			}
			_, err = faults.NewInjector(sc, w.Deployment, w.Mapping, w.Metros)
			if err == nil {
				t.Fatalf("NewInjector accepted %q", tc.text)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
	// An invalid scenario is rejected before target resolution.
	bad := faults.Scenario{Events: []faults.Event{{Kind: faults.Drain, Target: "paris", Day: 0, Days: 0}}}
	if _, err := faults.NewInjector(bad, w.Deployment, w.Mapping, w.Metros); err == nil {
		t.Fatal("NewInjector accepted an invalid scenario")
	}
}

// TestSurgeFactorAndScaleQueries pins the injector-level surge semantics:
// factors multiply where windows stack, scaling rounds half-up, and an
// absurd qps clamps to the int32 range.
func TestSurgeFactorAndScaleQueries(t *testing.T) {
	w := testutil.SmallWorld(t)
	sc, err := faults.ParseScenario(
		"surge europe day=1 for=2 qps=3; surge europe day=2 qps=2; surge asia day=1 qps=1e15; surge oceania day=1 qps=0.25")
	if err != nil {
		t.Fatal(err)
	}
	inj, err := faults.NewInjector(sc, w.Deployment, w.Mapping, w.Metros)
	if err != nil {
		t.Fatal(err)
	}
	factors := []struct {
		region geo.Region
		day    int
		want   float64
	}{
		{geo.RegionEurope, 0, 1},
		{geo.RegionEurope, 1, 3},
		{geo.RegionEurope, 2, 6}, // stacked flash crowds compound
		{geo.RegionEurope, 3, 1},
		{geo.RegionAsia, 1, 1e15},
		{geo.RegionNorthAmerica, 1, 1},
	}
	for _, tc := range factors {
		if got := inj.SurgeFactor(tc.region, tc.day); got != tc.want {
			t.Errorf("SurgeFactor(%s, %d) = %v, want %v", tc.region, tc.day, got, tc.want)
		}
	}
	scales := []struct {
		region geo.Region
		day    int
		q      int
		want   int
	}{
		{geo.RegionEurope, 0, 10, 10},          // outside the window: untouched
		{geo.RegionEurope, 1, 10, 30},          // x3
		{geo.RegionEurope, 2, 3, 18},           // x6 stacked
		{geo.RegionOceania, 1, 10, 3},          // 2.5 rounds half-up
		{geo.RegionAsia, 1, 10, math.MaxInt32}, // clamped to the int32 range
		{geo.RegionEurope, 1, 0, 0},            // nothing to scale
	}
	for _, tc := range scales {
		if got := inj.ScaleQueries(tc.region, tc.day, tc.q); got != tc.want {
			t.Errorf("ScaleQueries(%s, %d, %d) = %d, want %d", tc.region, tc.day, tc.q, got, tc.want)
		}
	}
}

// TestNilInjectorIsInert pins the nil-safety contract every sim hook
// relies on: a nil *Injector behaves exactly like no injector.
func TestNilInjectorIsInert(t *testing.T) {
	var inj *faults.Injector
	if inj.ActiveOn(0) {
		t.Fatal("nil injector is active")
	}
	if inj.Drained(topology.SiteID(1), 0) || inj.Withdrawn(topology.SiteID(1), 0) {
		t.Fatal("nil injector drains or withdraws")
	}
	if inj.InflationMs(geo.RegionEurope, 0) != 0 {
		t.Fatal("nil injector inflates")
	}
	l := dns.LDNS{ID: 3, Name: "x"}
	if got := inj.Resolver(l, 0); got != l {
		t.Fatal("nil injector rewrote a resolver")
	}
	if inj.ScaleQueries(geo.RegionEurope, 0, 10) != 10 {
		t.Fatal("nil injector scales queries")
	}
}

func TestInjectorDayWindows(t *testing.T) {
	w := testutil.SmallWorld(t)
	fe := feMetro(t)
	sc, err := faults.ParseScenario("drain " + fe + " day=2 for=2")
	if err != nil {
		t.Fatal(err)
	}
	inj, err := faults.NewInjector(sc, w.Deployment, w.Mapping, w.Metros)
	if err != nil {
		t.Fatal(err)
	}
	var site topology.SiteID = topology.InvalidSite
	for _, s := range w.Deployment.Backbone.Sites {
		if s.Metro.Name == fe {
			site = s.ID
		}
	}
	for day, want := range map[int]bool{1: false, 2: true, 3: true, 4: false} {
		if inj.Drained(site, day) != want {
			t.Errorf("Drained(%s, %d) = %v, want %v", fe, day, !want, want)
		}
		if inj.Withdrawn(site, day) {
			t.Errorf("drain event must not withdraw the route (day %d)", day)
		}
	}
}

// TestRewriteReroutesToNearestStanding: a client whose ingress is
// withdrawn re-routes to its nearest peering site that still announces
// the prefix, however many of its nearest sites are withdrawn — more than
// the short prefix Rewrite ranks first, too — and only inside the flap
// window.
func TestRewriteReroutesToNearestStanding(t *testing.T) {
	w := testutil.SmallWorld(t)
	bb := w.Deployment.Backbone
	for i := 0; i < 12; i++ {
		cl := &w.Population.Clients[i*97%len(w.Population.Clients)]
		c := bgp.Client{PrefixID: cl.ID, Point: cl.Point, ISP: cl.ISP}
		ranked := bb.RankPeeringByAir(c.Point)
		plain := w.Router.Assign(c, ranked[0])
		for k := 1; k <= 6; k++ {
			events := make([]string, k)
			for j, s := range ranked[:k] {
				events[j] = "flap " + bb.Site(s).Metro.Name + " day=2 for=1"
			}
			sc, err := faults.ParseScenario(strings.Join(events, "; "))
			if err != nil {
				t.Fatal(err)
			}
			inj, err := faults.NewInjector(sc, w.Deployment, w.Mapping, w.Metros)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := inj.Rewrite(c, 2, plain, w.Router), w.Router.Assign(c, ranked[k]); got != want {
				t.Fatalf("client %d with its %d nearest sites withdrawn: rerouted to %+v, want the next nearest %+v", c.PrefixID, k, got, want)
			}
			if got := inj.Rewrite(c, 3, plain, w.Router); got != plain {
				t.Fatalf("client %d rerouted after the flap window: %+v", c.PrefixID, got)
			}
		}
	}
}
