package faults_test

import (
	"fmt"
	"testing"

	"anycastcdn/internal/bgp"
	"anycastcdn/internal/dns"
	"anycastcdn/internal/faults"
	"anycastcdn/internal/geo"
	"anycastcdn/internal/sim"
	"anycastcdn/internal/testutil"
	"anycastcdn/internal/topology"
)

// The end-to-end suite runs full simulations under each event kind and
// checks the three scenario-engine contracts: the event does what it says
// during its window, the world is untouched outside the window, and the
// whole thing is replay-deterministic.

// runScenario simulates the shared small config under a scenario text.
func runScenario(t *testing.T, text string) *sim.Result {
	t.Helper()
	sc, err := faults.ParseScenario(text)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testutil.SmallConfig(1)
	cfg.Scenario = &sc
	res, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// diffRuns returns a description of the first difference between two
// runs, or "" when they are byte-identical.
func diffRuns(a, b *sim.Result) string {
	for day := range a.Beacons {
		if len(a.Beacons[day]) != len(b.Beacons[day]) {
			return fmt.Sprintf("day %d beacon counts %d vs %d", day, len(a.Beacons[day]), len(b.Beacons[day]))
		}
		for i := range a.Beacons[day] {
			if a.Beacons[day][i] != b.Beacons[day][i] {
				return fmt.Sprintf("day %d beacon %d:\n%+v\nvs\n%+v", day, i, a.Beacons[day][i], b.Beacons[day][i])
			}
		}
	}
	if a.Passive.Len() != b.Passive.Len() {
		return fmt.Sprintf("passive lengths %d vs %d", a.Passive.Len(), b.Passive.Len())
	}
	for i := 0; i < a.Passive.Len(); i++ {
		if a.Passive.At(i) != b.Passive.At(i) {
			return fmt.Sprintf("passive record %d: %+v vs %+v", i, a.Passive.At(i), b.Passive.At(i))
		}
	}
	for c := range a.Assignments {
		for d := range a.Assignments[c] {
			if a.Assignments[c][d] != b.Assignments[c][d] {
				return fmt.Sprintf("assignment client %d day %d: %+v vs %+v",
					c, d, a.Assignments[c][d], b.Assignments[c][d])
			}
		}
	}
	return ""
}

// assignmentsEqualOnDay reports whether every client's day-d assignment
// matches between runs.
func assignmentsEqualOnDay(a, b *sim.Result, d int) bool {
	for c := range a.Assignments {
		if a.Assignments[c][d] != b.Assignments[c][d] {
			return false
		}
	}
	return true
}

// beaconsEqualOnDay reports whether day d's beacons match between runs.
func beaconsEqualOnDay(a, b *sim.Result, d int) bool {
	if len(a.Beacons[d]) != len(b.Beacons[d]) {
		return false
	}
	for i := range a.Beacons[d] {
		if a.Beacons[d][i] != b.Beacons[d][i] {
			return false
		}
	}
	return true
}

// busiestSite returns the metro name and site ID serving the most clients
// on a day, by ingress or by front-end.
func busiestSite(t *testing.T, res *sim.Result, day int, byIngress bool) (string, topology.SiteID) {
	t.Helper()
	counts := map[topology.SiteID]int{}
	for c := range res.Assignments {
		a := res.Assignments[c][day]
		if byIngress {
			counts[a.Ingress]++
		} else {
			counts[a.FrontEnd]++
		}
	}
	best, bestN := topology.InvalidSite, 0
	for s, n := range counts {
		if n > bestN || (n == bestN && s < best) {
			best, bestN = s, n
		}
	}
	if best == topology.InvalidSite {
		t.Fatal("no assignments to pick a target from")
	}
	return res.World.Deployment.Backbone.Site(best).Metro.Name, best
}

func TestNoOpScenarioByteIdentical(t *testing.T) {
	base := testutil.SmallResult(t)
	cfg := testutil.SmallConfig(1)
	cfg.Scenario = &faults.Scenario{} // present but empty
	res, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if d := diffRuns(base, res); d != "" {
		t.Fatalf("empty scenario diverged from fault-free run: %s", d)
	}
}

func TestScenarioReplayIdentical(t *testing.T) {
	base := testutil.SmallResult(t)
	fe, _ := busiestSite(t, base, 3, false)
	text := fmt.Sprintf("drain %s day=3 for=2; inflate europe day=4 ms=25", fe)
	a := runScenario(t, text)
	b := runScenario(t, text)
	if d := diffRuns(a, b); d != "" {
		t.Fatalf("same seed + same scenario diverged: %s", d)
	}
	if d := diffRuns(base, a); d == "" {
		t.Fatal("scenario run identical to fault-free run; events had no effect")
	}
}

func TestDrainScenario(t *testing.T) {
	base := testutil.SmallResult(t)
	fe, feSite := busiestSite(t, base, 3, false)
	res := runScenario(t, fmt.Sprintf("drain %s day=3 for=2", fe))

	for d := 0; d < base.Cfg.Days; d++ {
		inWindow := d == 3 || d == 4
		if !inWindow {
			if !assignmentsEqualOnDay(base, res, d) {
				t.Fatalf("day %d outside the drain window diverged from baseline", d)
			}
			continue
		}
		shifted := 0
		for c := range res.Assignments {
			if res.Assignments[c][d].FrontEnd == feSite {
				t.Fatalf("client %d still served by drained front-end %s on day %d", c, fe, d)
			}
			if res.Assignments[c][d] != base.Assignments[c][d] {
				shifted++
			}
		}
		if shifted == 0 {
			t.Fatalf("draining the busiest front-end %s shifted nobody on day %d", fe, d)
		}
	}
}

func TestFlapScenario(t *testing.T) {
	base := testutil.SmallResult(t)
	ing, ingSite := busiestSite(t, base, 3, true)
	res := runScenario(t, fmt.Sprintf("flap %s day=3 for=2", ing))

	feShifted := 0
	for d := 0; d < base.Cfg.Days; d++ {
		inWindow := d == 3 || d == 4
		if !inWindow {
			if !assignmentsEqualOnDay(base, res, d) {
				t.Fatalf("day %d outside the flap window diverged from baseline", d)
			}
			continue
		}
		for c := range res.Assignments {
			if res.Assignments[c][d].Ingress == ingSite {
				t.Fatalf("client %d still ingressing at withdrawn site %s on day %d", c, ing, d)
			}
			if res.Assignments[c][d].FrontEnd != base.Assignments[c][d].FrontEnd {
				feShifted++
			}
		}
	}
	if feShifted == 0 {
		t.Fatalf("withdrawing the busiest ingress %s moved no client to a different front-end", ing)
	}
}

// TestDayPassMatchesRoutingOracle checks the simulated day pass against
// the routing layer asked one client-day at a time. Every effective
// assignment must equal the fault rewrite of a fresh Assign on the
// scheduled ingress, AirKm included, and every passive record's switch
// flag must be SwitchedOnDay's. The stream reuses each client's distance
// until its scheduled ingress changes, so the scenarios flap the busiest
// ingress: with an overlapping drain of the busiest front-end the
// rewrites compose, and with the flap alone the day after the window
// serves the scheduled ingress unrewritten, so a distance taken from the
// moved assignment the day before would reach the output.
func TestDayPassMatchesRoutingOracle(t *testing.T) {
	base := testutil.SmallResult(t)
	ing, _ := busiestSite(t, base, 3, true)
	fe, _ := busiestSite(t, base, 4, false)
	reusedAfterMove := 0
	for _, text := range []string{
		fmt.Sprintf("flap %s day=3 for=2; drain %s day=4 for=2", ing, fe),
		fmt.Sprintf("flap %s day=3 for=2", ing),
	} {
		res := runScenario(t, text)
		w, days := res.World, res.Cfg.Days
		clients := make(map[uint64]bgp.Client, len(w.Population.Clients))
		for c := range w.Population.Clients {
			cl := &w.Population.Clients[c]
			rc := bgp.Client{PrefixID: cl.ID, Point: cl.Point, ISP: cl.ISP}
			clients[cl.ID] = rc
			sched := w.Router.IngressSchedule(rc, days)
			for d := 0; d < days; d++ {
				plain := w.Router.Assign(rc, sched[d].Ingress())
				want := w.Faults.Rewrite(rc, d, plain, w.Router)
				if got := res.Assignments[c][d]; got != want {
					t.Fatalf("%s: client %d day %d: day pass assigned %+v, oracle %+v", text, cl.ID, d, got, want)
				}
				if d > 0 && res.Assignments[c][d-1].Ingress != sched[d-1].Ingress() && sched[d] == sched[d-1] && want == plain {
					reusedAfterMove++
				}
			}
		}
		if got, want := res.Passive.Len(), len(clients)*days; got != want {
			t.Fatalf("%s: %d passive records, want %d", text, got, want)
		}
		switched := 0
		for i := 0; i < res.Passive.Len(); i++ {
			r := res.Passive.At(i)
			rc, ok := clients[r.ClientID]
			if !ok {
				t.Fatalf("%s: passive record %d names unknown client %d", text, i, r.ClientID)
			}
			if want := w.Router.SwitchedOnDay(rc, r.Day); r.Switched != want {
				t.Fatalf("%s: client %d day %d: passive Switched %v, SwitchedOnDay %v", text, r.ClientID, r.Day, r.Switched, want)
			}
			if r.Switched {
				switched++
			}
		}
		if switched == 0 {
			t.Fatalf("%s: no passive record carries a switch; the check pins nothing", text)
		}
	}
	if reusedAfterMove == 0 {
		t.Fatal("no unrewritten client-day follows a day whose rewrite moved the same scheduled ingress; the scenarios pin no distance reuse")
	}
}

func TestLDNSOutageScenario(t *testing.T) {
	base := testutil.SmallResult(t)
	res := runScenario(t, "ldns-outage europe day=3 for=2")
	realResolvers := dns.LDNSID(len(base.World.Mapping.Resolvers))

	sawFallback := false
	for d := 0; d < base.Cfg.Days; d++ {
		inWindow := d == 3 || d == 4
		if !inWindow {
			if !beaconsEqualOnDay(base, res, d) {
				t.Fatalf("day %d outside the outage window diverged from baseline", d)
			}
			continue
		}
		for i, m := range res.Beacons[d] {
			if m.LDNS >= realResolvers {
				sawFallback = true
				if bm := base.Beacons[d][i]; bm.LDNS == m.LDNS {
					t.Fatalf("baseline beacon already used fallback resolver %d", m.LDNS)
				}
			}
		}
	}
	if !sawFallback {
		t.Fatal("no beacon fell back to a public resolver during the outage")
	}
	// Assignments are routing-only and must be untouched by a DNS fault.
	for d := 0; d < base.Cfg.Days; d++ {
		if !assignmentsEqualOnDay(base, res, d) {
			t.Fatalf("ldns outage changed routing assignments on day %d", d)
		}
	}
}

func TestInflateScenario(t *testing.T) {
	base := testutil.SmallResult(t)
	res := runScenario(t, "inflate europe day=3 for=2 ms=40")

	sawInflation := false
	for d := 0; d < base.Cfg.Days; d++ {
		inWindow := d == 3 || d == 4
		if !inWindow {
			if !beaconsEqualOnDay(base, res, d) {
				t.Fatalf("day %d outside the inflate window diverged from baseline", d)
			}
			continue
		}
		for i, m := range res.Beacons[d] {
			bm := base.Beacons[d][i]
			if m.Region != geo.RegionEurope {
				if m != bm {
					t.Fatalf("day %d: inflate europe changed a %s client's beacon", d, m.Region)
				}
				continue
			}
			if m.Anycast.RTTms < bm.Anycast.RTTms {
				t.Fatalf("day %d: inflation lowered a latency (%v -> %v)", d, bm.Anycast.RTTms, m.Anycast.RTTms)
			}
			if m.Anycast.RTTms > bm.Anycast.RTTms {
				sawInflation = true
			}
		}
	}
	if !sawInflation {
		t.Fatal("no european beacon latency rose during the inflate window")
	}
}

func TestSurgeScenario(t *testing.T) {
	base := testutil.SmallResult(t)
	res := runScenario(t, "surge europe day=3 for=2 qps=4")
	days := base.Cfg.Days

	// A surge is volume-only: routing is untouched on every day.
	for d := 0; d < days; d++ {
		if !assignmentsEqualOnDay(base, res, d) {
			t.Fatalf("surge changed routing assignments on day %d", d)
		}
	}
	sawScale := false
	for i, c := range base.World.Population.Clients {
		for d := 0; d < days; d++ {
			rb, rr := base.Passive.At(i*days+d), res.Passive.At(i*days+d)
			inWindow := d == 3 || d == 4
			if !inWindow || c.Region != geo.RegionEurope {
				if rr != rb {
					t.Fatalf("client %d (%s) day %d outside the surge diverged: %+v vs %+v",
						i, c.Region, d, rr, rb)
				}
				continue
			}
			// Half-up rounding, exactly as the injector documents.
			want := int(float64(rb.Queries)*4 + 0.5)
			if rr.Queries != want {
				t.Fatalf("client %d day %d: queries %d, want %d (base %d x4)",
					i, d, rr.Queries, want, rb.Queries)
			}
			if rr.Queries != rb.Queries {
				sawScale = true
			}
		}
	}
	if !sawScale {
		t.Fatal("no european client-day's volume actually scaled during the surge")
	}
}

// TestSurgeUnityIsNoOp: qps=1 scales by exactly 1 with no rounding and no
// randomness consumed, so the run is byte-identical to fault-free.
func TestSurgeUnityIsNoOp(t *testing.T) {
	base := testutil.SmallResult(t)
	res := runScenario(t, "surge europe day=3 for=2 qps=1")
	if d := diffRuns(base, res); d != "" {
		t.Fatalf("qps=1 surge diverged from fault-free run: %s", d)
	}
}

func TestSurgeZeroSilencesRegion(t *testing.T) {
	base := testutil.SmallResult(t)
	res := runScenario(t, "surge europe day=3 for=2 qps=0")
	days := base.Cfg.Days
	hadVolume := false
	for i, c := range base.World.Population.Clients {
		if c.Region != geo.RegionEurope {
			continue
		}
		for d := 3; d <= 4; d++ {
			if base.Passive.At(i*days+d).Queries > 0 {
				hadVolume = true
			}
			if q := res.Passive.At(i*days + d).Queries; q != 0 {
				t.Fatalf("client %d day %d still sent %d queries under qps=0", i, d, q)
			}
		}
	}
	if !hadVolume {
		t.Fatal("baseline had no european volume in the window; test proves nothing")
	}
}
