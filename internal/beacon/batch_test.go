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

// baseFrontEnd is the client's front-end on a fault-free day without
// churn.
func baseFrontEnd(w *sim.World, c *clients.Client) topology.SiteID {
	rc := bgp.Client{PrefixID: c.ID, Point: c.Point, ISP: c.ISP}
	return w.Router.Assign(rc, w.Router.BaseIngress(rc)).FrontEnd
}
