package faults

import (
	"fmt"
	"math"

	"anycastcdn/internal/bgp"
	"anycastcdn/internal/cdn"
	"anycastcdn/internal/dns"
	"anycastcdn/internal/geo"
	"anycastcdn/internal/topology"
	"anycastcdn/internal/units"
)

// Injector is a Scenario compiled against a built world: event targets
// are resolved to site IDs and regions, and LDNS fallback routes are
// precomputed. All methods are pure functions of (event list, day), are
// safe on a nil receiver (a nil *Injector injects nothing), and consume
// no randomness — which is what keeps a faulted run replay-deterministic
// and a fault-free run byte-identical to one with a nil or empty
// injector.
//
// Injector is immutable after construction and safe for concurrent use
// by the simulation workers.
type Injector struct {
	// siteEvents holds Drain and Flap events with their resolved site.
	siteEvents []siteEvent
	// regionEvents holds LDNSOutage, Inflate and Surge events.
	regionEvents []regionEvent
	// ldnsFallback maps each resolver ID of the world's mapping to the
	// public resolver its clients fall back to during an outage of the
	// resolver's region; entries are only present for resolvers an
	// LDNSOutage event can affect (ISP resolvers, by region).
	ldnsFallback map[dns.LDNSID]fallback
	// firstDay/lastDay bound the active window across all events so the
	// per-day hot path can bail out with two comparisons.
	firstDay, lastDay int
}

type siteEvent struct {
	ev   Event
	site topology.SiteID
}

type regionEvent struct {
	ev     Event
	region geo.Region
}

type fallback struct {
	region geo.Region
	ldns   dns.LDNS
}

// NewInjector compiles a scenario against a deployment, resolver mapping
// and metro catalog. It returns an error for targets that do not resolve:
// a Drain target that is not a front-end metro of the deployment, a Flap
// target that is not a peering metro, or a region target that is not a
// region of the catalog.
func NewInjector(sc Scenario, dep *cdn.Deployment, mapping *dns.Mapping, metros []geo.Metro) (*Injector, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	inj := &Injector{firstDay: int(^uint(0) >> 1), lastDay: -1}

	bb := dep.Backbone
	siteByMetro := map[string]topology.SiteID{}
	for _, s := range bb.Sites {
		siteByMetro[s.Metro.Name] = s.ID
	}
	regions := map[geo.Region]bool{}
	for _, m := range metros {
		regions[m.Region] = true
	}

	for i, e := range sc.Events {
		switch e.Kind {
		case Drain, Flap:
			id, ok := siteByMetro[e.Target]
			if !ok {
				return nil, fmt.Errorf("faults: event %d: %s target %q is not a deployment metro", i, e.Kind, e.Target)
			}
			s := bb.Site(id)
			if e.Kind == Drain && !s.FrontEnd {
				return nil, fmt.Errorf("faults: event %d: drain target %q hosts no front-end", i, e.Target)
			}
			if e.Kind == Flap && !s.Peering {
				return nil, fmt.Errorf("faults: event %d: flap target %q is not a peering site", i, e.Target)
			}
			inj.siteEvents = append(inj.siteEvents, siteEvent{ev: e, site: id})
		case LDNSOutage, Inflate, Surge:
			if !regions[geo.Region(e.Target)] {
				return nil, fmt.Errorf("faults: event %d: %s target %q is not a world region", i, e.Kind, e.Target)
			}
			inj.regionEvents = append(inj.regionEvents, regionEvent{ev: e, region: geo.Region(e.Target)})
		}
		if e.Day < inj.firstDay {
			inj.firstDay = e.Day
		}
		if e.End()-1 > inj.lastDay {
			inj.lastDay = e.End() - 1
		}
	}

	if err := inj.compileLDNSFallback(mapping, metros); err != nil {
		return nil, err
	}
	return inj, nil
}

// compileLDNSFallback precomputes, for every ISP resolver of the mapping,
// which region it sits in and which public resolver its clients would
// fall back to. Synthetic fallback resolvers get IDs past the mapping's
// range so the authoritative DNS caches them separately from real ones.
func (inj *Injector) compileLDNSFallback(mapping *dns.Mapping, metros []geo.Metro) error {
	hasOutage := false
	for _, re := range inj.regionEvents {
		if re.ev.Kind == LDNSOutage {
			hasOutage = true
			break
		}
	}
	if !hasOutage || mapping == nil {
		return nil
	}
	publics, err := dns.PublicResolvers(metros, dns.LDNSID(len(mapping.Resolvers)))
	if err != nil {
		return err
	}
	pts := make([]geo.Point, len(publics))
	for i, p := range publics {
		pts[i] = p.Point
	}
	metroPts := make([]geo.Point, len(metros))
	for i, m := range metros {
		metroPts[i] = m.Point
	}
	publicSet, metroSet := geo.NewPointSet(pts), geo.NewPointSet(metroPts)
	inj.ldnsFallback = make(map[dns.LDNSID]fallback)
	for _, l := range mapping.Resolvers {
		if l.Kind == dns.Public {
			continue // public resolvers are the fallback, not the casualty
		}
		mi, _ := metroSet.Nearest(l.Point)
		pi, _ := publicSet.Nearest(l.Point)
		inj.ldnsFallback[l.ID] = fallback{region: metros[mi].Region, ldns: publics[pi]}
	}
	return nil
}

// ActiveOn reports whether any event is in effect on the given day.
func (inj *Injector) ActiveOn(day int) bool {
	return inj != nil && day >= inj.firstDay && day <= inj.lastDay
}

// Drained reports whether the front-end at site is out of service on day.
func (inj *Injector) Drained(site topology.SiteID, day int) bool {
	if !inj.ActiveOn(day) {
		return false
	}
	for _, se := range inj.siteEvents {
		if se.ev.Kind == Drain && se.site == site && se.ev.ActiveOn(day) {
			return true
		}
	}
	return false
}

// Withdrawn reports whether the peering site's anycast route is withdrawn
// on day.
func (inj *Injector) Withdrawn(site topology.SiteID, day int) bool {
	if !inj.ActiveOn(day) {
		return false
	}
	for _, se := range inj.siteEvents {
		if se.ev.Kind == Flap && se.site == site && se.ev.ActiveOn(day) {
			return true
		}
	}
	return false
}

// InflationMs returns the extra latency every path of the region's
// clients suffers on day (zero when no inflate event is active).
func (inj *Injector) InflationMs(region geo.Region, day int) units.Millis {
	if !inj.ActiveOn(day) {
		return 0
	}
	var extra units.Millis
	for _, re := range inj.regionEvents {
		if re.ev.Kind == Inflate && re.region == region && re.ev.ActiveOn(day) {
			extra += re.ev.ExtraMs
		}
	}
	return extra
}

// SurgeFactor returns the query-volume multiplier the region's clients
// experience on day: 1 with no active surge event, otherwise the product
// of every active matching surge's qps (stacked flash crowds compound).
func (inj *Injector) SurgeFactor(region geo.Region, day int) float64 {
	if !inj.ActiveOn(day) {
		return 1
	}
	f := 1.0
	for _, re := range inj.regionEvents {
		if re.ev.Kind == Surge && re.region == region && re.ev.ActiveOn(day) {
			f *= re.ev.QPS
		}
	}
	return f
}

// ScaleQueries applies the day's surge factor to a client's query count,
// rounding half-up so the scaling consumes no randomness and a factor of
// exactly 1 returns q unchanged. Results are clamped to the int32 range
// the columnar passive log stores queries in, so an absurd qps cannot
// overflow downstream arithmetic.
func (inj *Injector) ScaleQueries(region geo.Region, day int, q int) int {
	f := inj.SurgeFactor(region, day)
	if f == 1 {
		return q
	}
	scaled := float64(q)*f + 0.5
	if scaled >= math.MaxInt32 {
		return math.MaxInt32
	}
	return int(scaled)
}

// Resolver returns the resolver the client actually reaches on day: l
// itself normally, or its public fallback while an ldns-outage event
// covers l's region. The fallback resolver's distant position changes
// the front-end candidates the authoritative DNS computes — the paper's
// public-resolver ECS behaviour.
func (inj *Injector) Resolver(l dns.LDNS, day int) dns.LDNS {
	if !inj.ActiveOn(day) || inj.ldnsFallback == nil {
		return l
	}
	fb, ok := inj.ldnsFallback[l.ID]
	if !ok {
		return l
	}
	for _, re := range inj.regionEvents {
		if re.ev.Kind == LDNSOutage && re.region == fb.region && re.ev.ActiveOn(day) {
			return fb.ldns
		}
	}
	return l
}

// Rewrite applies the active events to one client's anycast assignment
// for a day and returns the effective assignment. With no active events
// it returns a unchanged, so a no-op scenario leaves runs byte-identical.
//
// The rewrite happens in BGP order: first a withdrawn ingress re-routes
// the client to its next-ranked peering site that still announces the
// prefix; then, if the resulting hot-potato front-end is drained, the CDN
// AS falls through to the nearest standing front-end from the same
// ingress. Unicast beacon paths are untouched: the per-front-end unicast
// /24s of §3.1 stay announced during a drain (the front-end is out of
// rotation, not off the network), which is exactly what lets the beacon
// keep measuring a drained site.
func (inj *Injector) Rewrite(c bgp.Client, day int, a bgp.Assignment, r *bgp.Router) bgp.Assignment {
	if !inj.ActiveOn(day) {
		return a
	}
	if inj.Withdrawn(a.Ingress, day) {
		// A short prefix of the ranking almost always holds a standing
		// site; the full ranking is needed only when all of it is
		// withdrawn.
		var buf [rerouteDepth]topology.SiteID
		ranked := r.Backbone().RankPeeringByAirInto(c.Point, rerouteDepth, buf[:0])
		cand, ok := inj.firstStanding(ranked, day)
		if !ok && len(ranked) == rerouteDepth {
			cand, ok = inj.firstStanding(r.Backbone().RankPeeringByAir(c.Point), day)
		}
		// All peering withdrawn: the scenario black-holed the whole AS;
		// keep the original assignment rather than invent connectivity.
		if ok {
			a = r.Assign(c, cand)
		}
	}
	if inj.Drained(a.FrontEnd, day) {
		a = r.AssignExcluding(c, a.Ingress, func(fe topology.SiteID) bool {
			return inj.Drained(fe, day)
		})
	}
	return a
}

// rerouteDepth is how many nearest peering sites Rewrite ranks to find a
// withdrawn ingress's replacement before it ranks them all.
const rerouteDepth = 4

// firstStanding returns the first site of ranked whose route is not
// withdrawn on day.
func (inj *Injector) firstStanding(ranked []topology.SiteID, day int) (topology.SiteID, bool) {
	for _, s := range ranked {
		if !inj.Withdrawn(s, day) {
			return s, true
		}
	}
	return topology.InvalidSite, false
}
