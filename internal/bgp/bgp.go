// Package bgp models interdomain route selection toward the CDN's anycast
// prefix, and the route dynamics (churn) that drive front-end affinity.
//
// Anycast selection happens in two halves, mirroring the paper's
// description:
//
//  1. The client's ISP picks an egress peering point toward the CDN AS
//     according to its policy (topology.EgressPolicy): hot-potato to the
//     nearest peering site, centralized through a national hub, or a
//     geography-blind tie-break among nearby peering sites.
//  2. The CDN AS routes hot-potato from that ingress to the front-end
//     nearest by IGP metric (topology.Backbone.HotPotatoFrontEnd).
//
// Unicast selection is trivial by construction: each front-end's unicast
// /24 is announced only at the peering point closest to that front-end
// (§3.1), so unicast traffic ingresses at the front-end itself.
//
// Churn: per client prefix, route-change events arrive day by day with a
// heterogeneous per-client rate (most clients are stable, a small class is
// flappy) modulated by a weekday/weekend factor — network operators push
// fewer changes on weekends (§5, Figure 7).
package bgp

import (
	"time"

	"anycastcdn/internal/geo"
	"anycastcdn/internal/topology"
	"anycastcdn/internal/units"
	"anycastcdn/internal/xrand"
)

// Client is the view of a client prefix that routing needs.
type Client struct {
	PrefixID uint64
	Point    geo.Point
	ISP      topology.ISPID
}

// Assignment is the outcome of anycast routing for one client on one day.
type Assignment struct {
	// Ingress is the peering site where the client's traffic enters the
	// CDN AS.
	Ingress topology.SiteID
	// FrontEnd is the front-end that serves the traffic (hot-potato from
	// Ingress).
	FrontEnd topology.SiteID
	// AirKm is the great-circle distance from the client to the ingress.
	AirKm units.Kilometers
	// BackboneKm is the IGP distance from ingress to front-end.
	BackboneKm units.Kilometers
	// Unicast marks a beacon unicast path (ingresses at the front-end's
	// own peering point; see latency.Path.Unicast).
	Unicast bool
}

// Config parameterizes routing and churn.
type Config struct {
	// TieBreakTopK is how many nearest peering sites a TieBreak ISP
	// chooses among.
	TieBreakTopK int
	// HotPotatoMissRate is the probability that a hot-potato ISP lacks
	// peering at the site nearest a given client and uses the next one.
	HotPotatoMissRate float64
	// Churn class mix: fraction of clients that are stable / moderate /
	// flappy, with the per-weekday switch probability of each class.
	StableFrac, ModerateFrac float64 // flappy = 1 - stable - moderate
	StableRate, ModerateRate float64
	FlappyRate               float64
	// WeekendFactor multiplies switch rates on Saturday and Sunday.
	WeekendFactor float64
	// StartWeekday is the day of week of simulation day 0. The paper's
	// passive dataset starts Wednesday, April 1, 2015.
	StartWeekday time.Weekday
}

// DefaultConfig returns the calibration used by the experiments.
func DefaultConfig() Config {
	return Config{
		TieBreakTopK:      4,
		HotPotatoMissRate: 0.10,
		StableFrac:        0.72,
		ModerateFrac:      0.20,
		StableRate:        0.007,
		ModerateRate:      0.13,
		FlappyRate:        0.55,
		WeekendFactor:     0.10,
		StartWeekday:      time.Wednesday,
	}
}

// Per-router substream labels, hashed once. The schedule builder runs once
// per client and draws every day's switch event; SwitchedOnDay re-draws
// one on demand. All use value-type streams reseeded from these labels so
// the routing layer contributes no steady-state allocations to a simulated
// month.
var (
	labelTieBreak    = xrand.NewLabel("tiebreak")
	labelHPMiss      = xrand.NewLabel("hp-miss")
	labelChurnClass  = xrand.NewLabel("churn-class")
	labelChurnEvent  = xrand.NewLabel("churn-event")
	labelChurnTarget = xrand.NewLabel("churn-target")
)

// Router computes anycast assignments.
type Router struct {
	backbone *topology.Backbone
	isps     *topology.ISPModel
	cfg      Config
	seed     uint64
	// switchWeights[j] is the weight alternativeIngress gives the j-th
	// rank it does not skip, one per peering site, and switchSums[j] is
	// the in-order sum of the first j: the totals xrand.WeightedChoice
	// forms, which prefixIngress reads instead of ranking every site.
	switchWeights []float64
	switchSums    []float64
	// origins[s] is site s's metro point with its latitude terms, which
	// the unicast distances of UnicastAssignmentFrom read.
	origins []geo.Origin
}

// NewRouter builds a router over the given backbone and ISP model.
func NewRouter(b *topology.Backbone, isps *topology.ISPModel, seed uint64, cfg Config) *Router {
	if cfg.TieBreakTopK < 1 {
		cfg.TieBreakTopK = 1
	}
	n := len(b.PeeringSites())
	r := &Router{backbone: b, isps: isps, cfg: cfg, seed: seed,
		switchWeights: make([]float64, n), switchSums: make([]float64, n+1),
		origins: make([]geo.Origin, b.NumSites())}
	for i := range r.origins {
		r.origins[i] = geo.NewOrigin(b.Site(topology.SiteID(i)).Metro.Point)
	}
	w := 1.0
	for j := range r.switchWeights {
		r.switchWeights[j] = w
		r.switchSums[j+1] = r.switchSums[j] + w
		w *= 0.30
	}
	return r
}

// Weekday returns the day of week of a simulation day.
func (r *Router) Weekday(day int) time.Weekday {
	return time.Weekday((int(r.cfg.StartWeekday) + day%7 + 7) % 7)
}

// IsWeekend reports whether the simulation day falls on a weekend.
func (r *Router) IsWeekend(day int) bool {
	wd := r.Weekday(day)
	return wd == time.Saturday || wd == time.Sunday
}

// rankBufSites sizes the stack buffers the routing paths hand to
// RankPeeringByAirInto; larger peering sets fall back to the heap.
const rankBufSites = 128

// scheduleDepth is how many nearest peering sites the schedule builder
// ranks for its switch draws. The geometric weights put all but ~0.02% of
// draws on the first eight ranks; a draw that lands deeper ranks every
// site (prefixIngress).
const scheduleDepth = 8

// BaseIngress returns the steady-state ingress peering site for a client,
// applying its ISP's egress policy.
func (r *Router) BaseIngress(c Client) topology.SiteID {
	isp := r.isps.ISP(c.ISP)
	if isp.Policy == topology.Centralized {
		// Nearest hub to the client among the ISP's hub set. With one hub
		// this is the paper's Moscow→Stockholm pathology whenever the hub
		// is far from the client.
		hub, _ := r.nearestHub(c, isp)
		return hub
	}
	var rbuf [rankBufSites]topology.SiteID
	return r.baseIngressRanked(c, isp, r.backbone.RankPeeringByAirInto(c.Point, r.baseDepth(isp), rbuf[:0]))
}

// baseDepth is how many nearest peering sites baseIngressRanked reads
// under the ISP's policy; a Centralized ISP reads none.
func (r *Router) baseDepth(isp topology.ISP) int {
	switch isp.Policy {
	case topology.TieBreak:
		return r.cfg.TieBreakTopK
	case topology.Centralized:
		return 0
	}
	return 2
}

// baseIngressRanked resolves the TieBreak and HotPotato policies given at
// least the first baseDepth entries of the client's peering ranking. The
// schedule builder ranks once per client and shares the result with every
// switch day.
func (r *Router) baseIngressRanked(c Client, isp topology.ISP, ranked []topology.SiteID) topology.SiteID {
	if isp.Policy == topology.TieBreak {
		k := r.cfg.TieBreakTopK
		if k > len(ranked) {
			k = len(ranked)
		}
		// A stable, geography-blind choice among the k nearest: the BGP
		// decision depends on AS-path artifacts, not distance, so it is a
		// hash of (ISP salt, prefix) — consistent for the client, but
		// uncorrelated with which candidate is closest.
		var rs xrand.Stream
		rs.Reseed(xrand.DeriveSeedL2(r.seed, labelTieBreak, isp.TieBreakSalt, c.PrefixID))
		return ranked[rs.Intn(k)]
	}
	// HotPotato
	var rs xrand.Stream
	rs.Reseed(xrand.DeriveSeedL2(r.seed, labelHPMiss, uint64(isp.ID), c.PrefixID))
	if len(ranked) > 1 && rs.Bool(r.cfg.HotPotatoMissRate) {
		return ranked[1]
	}
	return ranked[0]
}

// churnClass returns the per-weekday switch rate for a client.
func (r *Router) churnClass(prefixID uint64) float64 {
	var rs xrand.Stream
	rs.Reseed(xrand.DeriveSeedL1(r.seed, labelChurnClass, prefixID))
	u := rs.Float64()
	switch {
	case u < r.cfg.StableFrac:
		return r.cfg.StableRate
	case u < r.cfg.StableFrac+r.cfg.ModerateFrac:
		return r.cfg.ModerateRate
	default:
		return r.cfg.FlappyRate
	}
}

// SwitchedOnDay reports whether the client's route changed during the
// given day (a BGP path change event). The schedule builder draws the
// same event for every day and records it in each entry's switch bit.
func (r *Router) SwitchedOnDay(c Client, day int) bool {
	return r.switchedOnDay(r.churnClass(c.PrefixID), r.churnPrefix(c.PrefixID), day)
}

// churnPrefix is the part of a client's switch-event substream derivation
// that every day shares.
func (r *Router) churnPrefix(prefixID uint64) uint64 {
	return xrand.DeriveSeedL1(r.seed, labelChurnEvent, prefixID)
}

// switchedOnDay draws the day's switch event at the client's churn-class
// rate from its churnPrefix, both of which the schedule builder derives
// once per client.
func (r *Router) switchedOnDay(rate float64, prefix uint64, day int) bool {
	if r.IsWeekend(day) {
		rate *= r.cfg.WeekendFactor
	}
	var rs xrand.Stream
	rs.Reseed(xrand.Extend(prefix, uint64(day)))
	return rs.Bool(rate)
}

// alternativeIngress picks the ingress a route change lands on: usually a
// nearby alternative (rank 2–4 by distance), occasionally back to rank 1.
// ranked is the client's full peering ranking from RankPeeringByAir.
func (r *Router) alternativeIngress(ranked []topology.SiteID, c Client, day int, current topology.SiteID) topology.SiteID {
	if len(ranked) == 1 {
		return ranked[0]
	}
	var rs xrand.Stream
	rs.Reseed(xrand.DeriveSeedL2(r.seed, labelChurnTarget, c.PrefixID, uint64(day)))
	// Geometric preference over ranks: nearby alternatives dominate, with
	// a long tail, matching Figure 8's switch-distance distribution. The
	// peering set is deployment-sized, so the weights fit a stack buffer.
	var wbuf [128]float64
	var weights []float64
	if len(ranked) <= len(wbuf) {
		weights = wbuf[:len(ranked)]
	} else {
		weights = make([]float64, len(ranked))
	}
	w := 1.0
	for i := range ranked {
		if ranked[i] == current {
			weights[i] = 0 // a switch must change the ingress
			continue
		}
		weights[i] = w
		w *= 0.30
	}
	idx := rs.WeightedChoice(weights)
	if idx < 0 {
		return current
	}
	return ranked[idx]
}

// prefixIngress is alternativeIngress drawn from prefix, the first
// entries of the client's peering ranking: it returns the same site, or
// ok = false when the draw lands at or past the prefix's end, where the
// caller redraws over the full ranking.
//
// No rank past the prefix is needed because xrand.WeightedChoice sums
// the weights in order and walks the running sum. The weight of each
// rank before a position is the same geometric term wherever the current
// ingress's 0 sits, and adding +0 leaves every partial sum unchanged. So
// the total is the sum of the first n-1 terms over n peering sites (all
// n when the current ingress is not a peering site, and weighs nothing),
// and the walk up to the prefix's end is the full walk's.
func (r *Router) prefixIngress(prefix []topology.SiteID, c Client, day int, current topology.SiteID) (topology.SiteID, bool) {
	terms := len(r.switchWeights)
	if r.backbone.Site(current).Peering {
		terms--
	}
	var rs xrand.Stream
	rs.Reseed(xrand.DeriveSeedL2(r.seed, labelChurnTarget, c.PrefixID, uint64(day)))
	target := rs.Float64() * r.switchSums[terms]
	var acc float64
	j := 0
	for _, s := range prefix {
		if s == current {
			continue
		}
		acc += r.switchWeights[j]
		j++
		if target < acc {
			return s, true
		}
	}
	return topology.InvalidSite, false
}

// ScheduleEntry is one client-day of an ingress schedule in 16 bits: the
// low 15 hold the day's ingress site and the top bit holds the day's
// SwitchedOnDay. The streaming simulation keeps one entry per client-day
// for the whole run, so the packing sets its steady-state memory at 2
// bytes per client-day.
//
// The 15-bit field holds sites [0, scheduleSites). topology.Build rejects
// duplicate metros, so the geo catalog bounds a deployment's NumSites far
// below that (TestScheduleEntryFitsCatalog fails if the catalog outgrows
// the field).
type ScheduleEntry uint16

const (
	scheduleSites               = 1 << 15
	entrySwitched ScheduleEntry = scheduleSites
)

// Ingress returns the day's ingress peering site.
func (e ScheduleEntry) Ingress() topology.SiteID { return topology.SiteID(e &^ entrySwitched) }

// Switched reports whether the client's route changed during the day.
func (e ScheduleEntry) Switched() bool { return e&entrySwitched != 0 }

// IngressSchedule returns the client's schedule for days [0, days). Day
// d's ingress reflects any switch events up to and including day d.
func (r *Router) IngressSchedule(c Client, days int) []ScheduleEntry {
	out := make([]ScheduleEntry, days)
	r.IngressScheduleInto(c, out)
	return out
}

// IngressScheduleInto fills out[d] with the client's schedule entry for
// day d, for d in [0, len(out)) — IngressSchedule without the allocation,
// for callers (the streaming simulation) that pack all clients' schedules
// into one flat array instead of holding a slice per client — and returns
// the client's base ingress, BaseIngress's answer, which the schedule
// starts from. The peering ranking, the churn class and the switch
// events' derivation prefix are computed once here and reused for the
// base choice and every day, so extra simulated days cost no extra
// ranking work (and no allocations). The ranking is
// only scheduleDepth deep (deeper when the base choice reads more) until
// a switch draw lands past it.
func (r *Router) IngressScheduleInto(c Client, out []ScheduleEntry) topology.SiteID {
	isp := r.isps.ISP(c.ISP)
	var rbuf [rankBufSites]topology.SiteID
	ranked := r.backbone.RankPeeringByAirInto(c.Point, max(scheduleDepth, r.baseDepth(isp)), rbuf[:0])
	var base topology.SiteID
	if isp.Policy == topology.Centralized {
		base, _ = r.nearestHub(c, isp)
	} else {
		base = r.baseIngressRanked(c, isp, ranked)
	}
	rate, churn := r.churnClass(c.PrefixID), r.churnPrefix(c.PrefixID)
	cur := base
	for d := range out {
		e := ScheduleEntry(0)
		if r.switchedOnDay(rate, churn, d) {
			next, ok := r.prefixIngress(ranked, c, d, cur)
			if !ok {
				// Past the prefix: rank every peering site (one weight
				// each) and redraw from the same substream.
				ranked = r.backbone.RankPeeringByAirInto(c.Point, len(r.switchWeights), rbuf[:0])
				next = r.alternativeIngress(ranked, c, d, cur)
			}
			cur = next
			e = entrySwitched
		}
		out[d] = e | ScheduleEntry(cur)
	}
	return base
}

// Assign resolves a full assignment from an ingress.
func (r *Router) Assign(c Client, ingress topology.SiteID) Assignment {
	return r.AssignAir(ingress, r.AirKm(c, ingress))
}

// AirKm returns the great-circle distance from the client to a site: the
// AirKm of an assignment that ingresses there.
func (r *Router) AirKm(c Client, site topology.SiteID) units.Kilometers {
	return geo.DistanceKm(c.Point, r.site(site))
}

// AssignAir is Assign with the client-to-ingress distance supplied by a
// caller that already holds AirKm(c, ingress) — the streaming simulation
// reuses it across the days a client's ingress stays put.
func (r *Router) AssignAir(ingress topology.SiteID, airKm units.Kilometers) Assignment {
	fe, backboneKm := r.backbone.HotPotatoFrontEnd(ingress)
	return Assignment{
		Ingress:    ingress,
		FrontEnd:   fe,
		AirKm:      airKm,
		BackboneKm: backboneKm,
	}
}

// AssignExcluding resolves an assignment from an ingress while skipping
// front-ends for which excludedFE reports true — the CDN-side view of a
// front-end drain (internal/faults). If every front-end is excluded the
// plain hot-potato assignment is returned: a deployment cannot drain its
// last front-end, it can only overload it.
func (r *Router) AssignExcluding(c Client, ingress topology.SiteID, excludedFE func(topology.SiteID) bool) Assignment {
	fe, backboneKm := r.backbone.HotPotatoFrontEndExcluding(ingress, excludedFE)
	if fe == topology.InvalidSite {
		return r.Assign(c, ingress)
	}
	return Assignment{
		Ingress:    ingress,
		FrontEnd:   fe,
		AirKm:      r.AirKm(c, ingress),
		BackboneKm: backboneKm,
	}
}

// UnicastAssignment returns the path for a direct unicast fetch from the
// client to the given front-end. The unicast /24 is announced only at the
// front-end's own peering point (§3.1), so for most clients the whole path
// rides the public Internet straight to the front-end. Clients of a
// single-interconnect centralized ISP are the exception: their ISP hauls
// ALL CDN-bound traffic through its hub, so the unicast path detours
// through the hub too and shares anycast's fate.
func (r *Router) UnicastAssignment(c Client, fe topology.SiteID) Assignment {
	airKm := geo.DistanceKm(c.Point, r.site(fe))
	if r.hubbed(c) {
		hub, _ := r.nearestHub(c, r.isps.ISP(c.ISP))
		airKm = geo.DistanceKm(c.Point, r.site(hub)) +
			geo.DistanceKm(r.site(hub), r.site(fe))
	}
	return unicast(fe, airKm)
}

// hubbed reports whether the client's ISP hauls its unicast paths through
// its hub: a centralized ISP with a single interconnect.
func (r *Router) hubbed(c Client) bool {
	if int(c.ISP) >= r.isps.Len() {
		return false
	}
	isp := r.isps.ISP(c.ISP)
	return isp.Policy == topology.Centralized && isp.SingleInterconnect
}

// unicast is the unicast assignment to fe over a path of airKm.
func unicast(fe topology.SiteID, airKm units.Kilometers) Assignment {
	return Assignment{Ingress: fe, FrontEnd: fe, AirKm: airKm, Unicast: true}
}

// UnicastClient is the part of UnicastAssignment that depends on the
// client alone: its point's latitude terms and, for a client whose ISP
// hauls unicast through its hub, that hub and the distance to it. A
// caller measuring one client against several front-ends computes it once
// (Router.UnicastClient) and resolves each front-end with
// UnicastAssignmentFrom.
type UnicastClient struct {
	origin geo.Origin
	// hub is InvalidSite unless the client's paths detour through it.
	hub   topology.SiteID
	hubKm units.Kilometers
}

// UnicastClient precomputes c's UnicastClient.
//
//perf:hotpath
func (r *Router) UnicastClient(c Client) UnicastClient {
	u := UnicastClient{origin: geo.NewOrigin(c.Point), hub: topology.InvalidSite}
	if r.hubbed(c) {
		u.hub, u.hubKm = r.nearestHub(c, r.isps.ISP(c.ISP))
	}
	return u
}

// UnicastAssignmentFrom is UnicastAssignment(c, fe) for the client whose
// UnicastClient is u, bit for bit: the same hub, and each distance by
// geo.Origin.DistanceKm, which returns geo.DistanceKm's bits.
//
//perf:hotpath
func (r *Router) UnicastAssignmentFrom(u *UnicastClient, fe topology.SiteID) Assignment {
	if u.hub == topology.InvalidSite {
		return unicast(fe, u.origin.DistanceKm(&r.origins[fe]))
	}
	return unicast(fe, u.hubKm+r.origins[u.hub].DistanceKm(&r.origins[fe]))
}

// nearestHub returns the ISP hub nearest to the client and the client's
// distance to it.
func (r *Router) nearestHub(c Client, isp topology.ISP) (topology.SiteID, units.Kilometers) {
	best, bestD := isp.Hubs[0], geo.DistanceKm(c.Point, r.site(isp.Hubs[0]))
	for _, h := range isp.Hubs[1:] {
		if d := geo.DistanceKm(c.Point, r.site(h)); d < bestD {
			best, bestD = h, d
		}
	}
	return best, bestD
}

func (r *Router) site(id topology.SiteID) geo.Point {
	return r.backbone.Site(id).Metro.Point
}

// Backbone exposes the underlying backbone (read-only use).
func (r *Router) Backbone() *topology.Backbone { return r.backbone }
