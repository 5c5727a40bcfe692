package beacon_test

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"anycastcdn/internal/beacon"
	"anycastcdn/internal/bgp"
	"anycastcdn/internal/clients"
	"anycastcdn/internal/dns"
	"anycastcdn/internal/faults"
	"anycastcdn/internal/geo"
	"anycastcdn/internal/latency"
	"anycastcdn/internal/sim"
	"anycastcdn/internal/testutil"
	"anycastcdn/internal/topology"
	"anycastcdn/internal/units"
	"anycastcdn/internal/xrand"
)

// reference is a memo-free beacon execution: the authority's target
// selection from a stream derived from the root, then for every sample
// the unicast distance by geo.DistanceKm (UnicastAssignment), the day
// RTT, the jitter prefix, the browser's timing model and the sample's
// draws, each computed afresh from the root. Every Batch must reproduce
// it exactly.
func reference(e *beacon.Executor, c *clients.Client, day int, assign bgp.Assignment, qid uint64) beacon.Measurement {
	ldns := e.Faults.Resolver(e.Mapping.Resolver(c.ID), day)
	var rs xrand.Stream
	rs.Reseed(xrand.DeriveSeedL1(e.Seed, xrand.NewLabel("beacon"), qid))
	tg := e.Authority.SelectBeaconTargets(ldns, &rs)
	rc := bgp.Client{PrefixID: c.ID, Point: c.Point, ISP: c.ISP}
	extra := e.Faults.InflationMs(c.Region, day)
	sample := func(a bgp.Assignment, slot uint64) beacon.TargetSample {
		p := latency.Path{
			PrefixID:   c.ID,
			EntryKey:   uint64(a.Ingress),
			AirKm:      a.AirKm,
			BackboneKm: a.BackboneKm,
			Household:  qid % 6,
			Unicast:    a.Unicast,
		}
		key := qid*8 + slot
		jitter := e.Latency.JitterPrefix(p.PrefixID, p.EntryKey, day)
		trueRTT := e.Latency.SampleFromDayRTTInto(&rs, e.Latency.DayRTTms(p, day), jitter, key) + extra
		measured := e.Latency.MeasuredRTTmsInto(&rs, trueRTT, e.Latency.Browser(c.ID), key)
		return beacon.TargetSample{Site: a.FrontEnd, RTTms: units.Millis(math.Round(measured.Float()))}
	}
	m := beacon.Measurement{
		QueryID:  qid,
		ClientID: c.ID,
		Day:      day,
		Region:   c.Region,
		LDNS:     ldns.ID,
		Anycast:  sample(assign, 0),
	}
	for i, site := range [3]topology.SiteID{tg.Closest, tg.Random[0], tg.Random[1]} {
		m.Unicast[i] = sample(e.Router.UnicastAssignment(rc, site), uint64(i+1))
	}
	return m
}

// TestBatchMatchesReference streams a month under an LDNS outage, a
// regional inflation and a front-end drain, and checks every measurement
// the day loop's batches produced against the memo-free reference and
// against one Batch reused across every client-day in turn, and each
// query ID against its derivation from the root. Every unicast target
// must rank inside the memo's candidate columns.
func TestBatchMatchesReference(t *testing.T) {
	t.Run("default-candidates", func(t *testing.T) {
		cfg := testutil.SmallConfig(3)
		cfg.Days = 7
		w, err := sim.BuildWorld(cfg)
		if err != nil {
			t.Fatal(err)
		}
		fe := baseFrontEnd(w, &w.Population.Clients[0])
		sc, err := faults.ParseScenario(fmt.Sprintf(
			"ldns-outage europe day=1 for=3; inflate europe day=2 for=3 ms=30; drain %s day=3 for=2",
			w.Deployment.Backbone.Site(fe).Metro.Name))
		if err != nil {
			t.Fatal(err)
		}
		cfg.Scenario = &sc
		if w, err = sim.BuildWorld(cfg); err != nil {
			t.Fatal(err)
		}
		e := w.Executor

		var reused beacon.Batch
		clientDays, outages, inflated, drained := 0, 0, 0, 0
		err = sim.StreamWorld(cfg, w, func(d sim.DayResult) error {
			var cur *clients.Client
			var k uint64
			for _, m := range d.Beacons {
				c := w.Population.Client(m.ClientID)
				assign := d.Assignments[m.ClientID-w.Population.Base]
				if c != cur {
					cur, k = c, 0
					reused.Start(e, *c, d.Day, assign)
					clientDays++
				}
				if want := xrand.DeriveSeed(cfg.Seed, "qid", c.ID, uint64(d.Day), k); m.QueryID != want {
					t.Fatalf("day %d client %d beacon %d: query ID %d, derived from the root %d", d.Day, c.ID, k, m.QueryID, want)
				}
				k++
				if want := reference(e, c, d.Day, assign, m.QueryID); m != want {
					t.Fatalf("day %d query %d: batch measured %+v, reference %+v", d.Day, m.QueryID, m, want)
				}
				if got := reused.Run(m.QueryID); got != m {
					t.Fatalf("day %d query %d: reused batch measured %+v, fresh %+v", d.Day, m.QueryID, got, m)
				}
				if m.LDNS != w.Mapping.Resolver(c.ID).ID {
					outages++
				}
				if e.Faults.InflationMs(c.Region, d.Day) > 0 {
					inflated++
				}
				if d.Day >= 3 && d.Day < 5 && assign.FrontEnd != fe && baseFrontEnd(w, c) == fe {
					drained++
				}
				cands := w.Authority.Candidates(w.Faults.Resolver(w.Mapping.Resolver(c.ID), d.Day))
				for _, u := range m.Unicast {
					if r := slices.Index(cands, u.Site); r < 0 || r >= dns.DefaultCandidates {
						t.Fatalf("day %d query %d: target %d ranks %d of %d candidates, past the memo's %d candidate columns",
							d.Day, m.QueryID, u.Site, r, len(cands), dns.DefaultCandidates)
					}
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if clientDays < 2000 {
			t.Fatalf("only %d client-days ran beacons, want at least 2000", clientDays)
		}
		if outages == 0 || inflated == 0 || drained == 0 {
			t.Fatalf("events reached too little: %d outage, %d inflated, %d drained-day beacons", outages, inflated, drained)
		}
	})
}

// TestCandidateSamplesMatchFreshBatch pins Figure 1's batch form: one
// Start serving several query IDs returns, for each, exactly what a
// fresh batch returns for that ID alone, and exactly the candidates'
// samples of the composition Figure 1 measured with before it (a fresh
// Start, the anycast sample, then the candidates). It covers a hubbed
// client of a single-interconnect centralized ISP, whose unicast paths
// all run through its hub, and a European client on a day inside an
// ldns-outage and on a day inside an inflate.
func TestCandidateSamplesMatchFreshBatch(t *testing.T) {
	cfg := testutil.SmallConfig(3)
	cfg.Days = 3
	sc, err := faults.ParseScenario("ldns-outage europe day=1 for=1; inflate europe day=2 for=1 ms=30")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Scenario = &sc
	w, err := sim.BuildWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e := w.Executor
	var hubbed, europe *clients.Client
	for i := range w.Population.Clients {
		c := &w.Population.Clients[i]
		if isp := w.ISPs.ISP(c.ISP); hubbed == nil && isp.Policy == topology.Centralized && isp.SingleInterconnect {
			hubbed = c
		}
		if europe == nil && c.Region == geo.RegionEurope {
			europe = c
		}
	}
	if hubbed == nil || europe == nil {
		t.Fatalf("fixture lacks a hubbed client (%v) or a European one (%v)", hubbed != nil, europe != nil)
	}
	for _, tc := range []struct {
		name string
		c    *clients.Client
		day  int
	}{
		{"hubbed", hubbed, 0},
		{"ldns-outage", europe, 1},
		{"inflate", europe, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := tc.c
			home := w.Mapping.Resolver(c.ID)
			if outage := e.Faults.Resolver(home, tc.day).ID != home.ID; outage != (tc.name == "ldns-outage") {
				t.Fatalf("day %d: resolver swapped %v", tc.day, outage)
			}
			if inflated := e.Faults.InflationMs(c.Region, tc.day) > 0; inflated != (tc.name == "inflate") {
				t.Fatalf("day %d: inflated %v", tc.day, inflated)
			}
			rc := bgp.Client{PrefixID: c.ID, Point: c.Point, ISP: c.ISP}
			assign := w.Router.Assign(rc, w.Router.BaseIngress(rc))
			var shared beacon.Batch
			shared.Start(e, *c, tc.day, assign)
			var got []beacon.TargetSample
			for k := range uint64(4) {
				qid := xrand.DeriveSeed(cfg.Seed, "fig1", c.ID, k)
				got = shared.CandidateSamples(got[:0], qid)
				if len(got) != dns.DefaultCandidates {
					t.Fatalf("query %d: %d candidate samples, want %d", qid, len(got), dns.DefaultCandidates)
				}
				var fresh beacon.Batch
				fresh.Start(e, *c, tc.day, assign)
				if want := fresh.CandidateSamples(nil, qid); !slices.Equal(got, want) {
					t.Fatalf("query %d: shared batch sampled %v, fresh batch %v", qid, got, want)
				}
				if want := beacon.CandidatesAfterAnycast(e, *c, tc.day, assign, qid); !slices.Equal(got, want) {
					t.Fatalf("query %d: shared batch sampled %v, after the anycast sample %v", qid, got, want)
				}
			}
		})
	}
}

// baseFrontEnd is the client's front-end on a fault-free day without
// churn.
func baseFrontEnd(w *sim.World, c *clients.Client) topology.SiteID {
	rc := bgp.Client{PrefixID: c.ID, Point: c.Point, ISP: c.ISP}
	return w.Router.Assign(rc, w.Router.BaseIngress(rc)).FrontEnd
}
