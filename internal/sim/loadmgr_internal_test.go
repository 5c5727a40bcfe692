package sim

import (
	"testing"

	"anycastcdn/internal/bgp"
	"anycastcdn/internal/load"
	"anycastcdn/internal/topology"
	"anycastcdn/internal/xrand"
)

// managerFixture builds a small world and a load manager over it with
// the given policy and the capacities its fault-free load matrix
// derives.
func managerFixture(t *testing.T, p load.Policy) (*World, *loadManager) {
	t.Helper()
	cfg := DefaultConfig(11)
	cfg.Prefixes, cfg.Days = 300, 5
	cfg.LoadManager = &load.ManagerConfig{Policy: p}
	w, err := BuildWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := ShardLoadMatrix(cfg, w, 0, cfg.Prefixes)
	if err != nil {
		t.Fatal(err)
	}
	caps, err := CapsFromLoadMatrix(cfg, w, m)
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := newLoadManager(cfg, w, caps)
	if err != nil {
		t.Fatal(err)
	}
	return w, mgr
}

// routeReference is route's FastRoute arm as it was before it returned
// early at a front-end that sheds nothing: it always reseeds and draws.
func routeReference(m *loadManager, seed, clientID uint64, day int, a bgp.Assignment, queries int) topology.SiteID {
	var rs xrand.Stream
	rs.Reseed(xrand.DeriveSeedL2(seed, labelLoadU, clientID, uint64(day)))
	return m.bal.RouteFrom(a.Ingress, a.FrontEnd, rs.Float64(), float64(queries))
}

// TestRouteMatchesAlwaysDrawing: route skips the uniform at a front-end
// whose layer-0 shed fraction is 0, and must route every client-day where
// the always-drawing walk does. The balancer is stepped on random demand,
// under the default controller and an aggressive one (Gain 4, MaxStep 1,
// set on the balancer) that jumps straight to 0 or 1, so layer-0
// fractions of exactly 0, strictly between 0 and 1, and exactly 1 all
// occur, and the client-day loads reach past the heavy-hitter threshold.
func TestRouteMatchesAlwaysDrawing(t *testing.T) {
	var zero, frac, full, heavy int
	for _, aggressive := range []bool{false, true} {
		w, m := managerFixture(t, load.FastRoute)
		if aggressive {
			m.bal.Gain, m.bal.MaxStep = 4, 1
		}
		bb := w.Deployment.Backbone
		fes := bb.FrontEnds()
		var maxCap float64
		for _, fe := range fes {
			maxCap = max(maxCap, m.caps[fe])
		}
		rs := xrand.New(5)
		demand := make([]float64, bb.NumSites())
		for round := 0; round < 40; round++ {
			clear(demand)
			for s := range demand {
				// Idle, ordinary and overloaded ingresses.
				switch rs.Intn(3) {
				case 1:
					demand[s] = rs.Float64() * maxCap
				case 2:
					demand[s] = (1 + 20*rs.Float64()) * maxCap
				}
			}
			m.policyStep(demand)
			for k := 0; k < 2000; k++ {
				fe := fes[rs.Intn(len(fes))]
				a := bgp.Assignment{Ingress: topology.SiteID(rs.Intn(bb.NumSites())), FrontEnd: fe}
				queries := rs.Intn(100)
				if rs.Bool(0.3) {
					queries = int(rs.Float64() * 2 * m.bal.HeavyShare * maxCap)
				}
				f := m.bal.ShedFraction(0, fe)
				switch {
				case f == 0:
					zero++
				case f == 1:
					full++
				default:
					frac++
				}
				if f > 0 && float64(queries) > m.bal.HeavyShare*m.caps[fe] {
					heavy++
				}
				client, day := rs.Uint64(), rs.Intn(30)
				if got, want := m.route(9, client, day, a, queries), routeReference(m, 9, client, day, a, queries); got != want {
					t.Fatalf("gain %v round %d: client %d day %d %+v with %d queries at shed %v: routed to %d, always-drawing walk %d",
						m.bal.Gain, round, client, day, a, queries, f, got, want)
				}
			}
		}
	}
	if zero == 0 || frac == 0 || full == 0 || heavy == 0 {
		t.Fatalf("balancer states not covered: %d zero, %d fractional, %d one, %d heavy hitters at a shedding front-end", zero, frac, full, heavy)
	}
}

// demandReference sums a day's demand by ingress with one map assignment
// per record.
func demandReference(passive []DayRecord, assigns []bgp.Assignment) map[topology.SiteID]float64 {
	demand := map[topology.SiteID]float64{}
	for i := range passive {
		demand[assigns[i].Ingress] += float64(passive[i].Queries)
	}
	return demand
}

// TestDemandFromMatchesMap: demandFrom's per-site sums equal the
// per-record map assignments at every site, zero at an ingress no record
// used or whose clients all sent zero queries, and a reused manager
// carries nothing from one day into the next.
func TestDemandFromMatchesMap(t *testing.T) {
	w, m := managerFixture(t, load.Static)
	sites := w.Deployment.Backbone.NumSites()
	rs := xrand.New(8)
	silent := 0
	for day := 0; day < 20; day++ {
		n := 50 + rs.Intn(500)
		passive := make([]DayRecord, n)
		assigns := make([]bgp.Assignment, n)
		// One ingress per day sees only zero-query records, and the day's
		// records use a random subset of the others.
		quiet := topology.SiteID(rs.Intn(sites))
		used := 1 + rs.Intn(sites)
		for i := range passive {
			ing := topology.SiteID(rs.Intn(used))
			q := 0
			if ing != quiet && rs.Bool(0.8) {
				q = rs.Intn(5000)
			}
			if i%7 == 0 {
				ing = quiet
			}
			if ing == quiet {
				q = 0
			}
			passive[i].Queries = q
			assigns[i].Ingress = ing
		}
		want := demandReference(passive, assigns)
		if v, ok := want[quiet]; ok && v == 0 {
			silent++
		}
		got := m.demandFrom(passive, assigns)
		if len(got) != sites {
			t.Fatalf("day %d: demandFrom has %d sites, want %d", day, len(got), sites)
		}
		for s, v := range got {
			if v != want[topology.SiteID(s)] {
				t.Fatalf("day %d: demandFrom %v, map reference %v", day, got, want)
			}
		}
	}
	if silent == 0 {
		t.Fatal("no day had an ingress whose clients sent zero queries")
	}
}
