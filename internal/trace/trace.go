// Package trace reconstructs hop-by-hop paths through the simulated
// topology, standing in for the RIPE Atlas traceroutes the paper used to
// diagnose poor anycast routes (§5). A trace shows the client's Internet
// leg to its ingress peering point and the CDN-internal backbone hops to
// the serving front-end, with cumulative distance and estimated RTT at
// each hop — enough to demonstrate both §5 pathologies programmatically.
package trace

import (
	"fmt"
	"strings"

	"anycastcdn/internal/bgp"
	"anycastcdn/internal/geo"
	"anycastcdn/internal/latency"
	"anycastcdn/internal/topology"
	"anycastcdn/internal/units"
)

// Hop is one step of a reconstructed path.
type Hop struct {
	// Name is the hop's location ("client", a site metro name).
	Name string
	// Kind describes the hop's role.
	Kind HopKind
	// CumulativeKm is the path distance walked so far.
	CumulativeKm units.Kilometers
	// EstRTTms is the estimated round-trip time to this hop.
	EstRTTms units.Millis
}

// HopKind classifies hops.
type HopKind int

// Hop kinds.
const (
	HopClient HopKind = iota
	HopIngress
	HopBackbone
	HopFrontEnd
)

func (k HopKind) String() string {
	switch k {
	case HopClient:
		return "client"
	case HopIngress:
		return "ingress"
	case HopBackbone:
		return "backbone"
	case HopFrontEnd:
		return "front-end"
	default:
		return fmt.Sprintf("HopKind(%d)", int(k))
	}
}

// Trace is a reconstructed path.
type Trace struct {
	Hops []Hop
	// Anycast reports whether the trace followed the anycast route (true)
	// or a direct unicast route (false).
	Anycast bool
}

// TotalKm returns the full path distance.
func (t Trace) TotalKm() units.Kilometers {
	if len(t.Hops) == 0 {
		return 0
	}
	return t.Hops[len(t.Hops)-1].CumulativeKm
}

// Render formats the trace like a traceroute.
func (t Trace) Render() string {
	var b strings.Builder
	kind := "anycast"
	if !t.Anycast {
		kind = "unicast"
	}
	fmt.Fprintf(&b, "traceroute (%s), %d hops:\n", kind, len(t.Hops))
	for i, h := range t.Hops {
		fmt.Fprintf(&b, "%3d  %-18s %-10s %8.0f km  %6.1f ms\n",
			i+1, h.Name, h.Kind, h.CumulativeKm, h.EstRTTms)
	}
	return b.String()
}

// Tracer reconstructs paths using the router's routing decisions and the
// latency model's estimates.
type Tracer struct {
	Router  *bgp.Router
	Latency *latency.Model
}

// TraceAnycast reconstructs the anycast path of a client on a given day.
func (tr *Tracer) TraceAnycast(c bgp.Client, day int) Trace {
	sched := tr.Router.IngressSchedule(c, day+1)
	assign := tr.Router.Assign(c, sched[day].Ingress())
	bb := tr.Router.Backbone()
	t := Trace{Anycast: true}
	t.Hops = append(t.Hops, Hop{Name: "client", Kind: HopClient})
	// Internet leg to ingress.
	cum := assign.AirKm
	p := latency.Path{PrefixID: c.PrefixID, EntryKey: uint64(assign.Ingress), AirKm: assign.AirKm}
	rttIngress := tr.Latency.BaseRTTms(p)
	t.Hops = append(t.Hops, Hop{
		Name:         bb.Site(assign.Ingress).Metro.Name,
		Kind:         HopIngress,
		CumulativeKm: cum,
		EstRTTms:     rttIngress,
	})
	// Backbone hops from ingress to front-end.
	path := bb.Path(assign.Ingress, assign.FrontEnd)
	cfg := tr.Latency.Config()
	for i := 1; i < len(path); i++ {
		prev := bb.Site(path[i-1]).Metro.Point
		cur := bb.Site(path[i]).Metro.Point
		legKm := geo.DistanceKm(prev, cur)
		cum += legKm
		rttIngress += units.Millis(2 * legKm.Float() * cfg.BackboneInflation / cfg.FiberKmPerMs)
		kind := HopBackbone
		if i == len(path)-1 {
			kind = HopFrontEnd
		}
		t.Hops = append(t.Hops, Hop{
			Name:         bb.Site(path[i]).Metro.Name,
			Kind:         kind,
			CumulativeKm: cum,
			EstRTTms:     rttIngress,
		})
	}
	if len(path) == 1 {
		// Ingress is the front-end: re-tag the last hop.
		t.Hops[len(t.Hops)-1].Kind = HopFrontEnd
	}
	return t
}

// TraceUnicast reconstructs the direct unicast path to a front-end.
func (tr *Tracer) TraceUnicast(c bgp.Client, fe topology.SiteID) Trace {
	assign := tr.Router.UnicastAssignment(c, fe)
	bb := tr.Router.Backbone()
	p := latency.Path{
		PrefixID: c.PrefixID,
		EntryKey: uint64(fe),
		AirKm:    assign.AirKm,
		Unicast:  true,
	}
	return Trace{
		Anycast: false,
		Hops: []Hop{
			{Name: "client", Kind: HopClient},
			{
				Name:         bb.Site(fe).Metro.Name,
				Kind:         HopFrontEnd,
				CumulativeKm: assign.AirKm,
				EstRTTms:     tr.Latency.BaseRTTms(p),
			},
		},
	}
}

// Diagnosis compares the anycast path against the best unicast alternative
// and classifies the pathology, mirroring the two case-study categories of
// §5.
type Diagnosis struct {
	AnycastTrace Trace
	BestUnicast  Trace
	// ExcessKm is how much farther the anycast path travels.
	ExcessKm units.Kilometers
	// Category classifies the problem.
	Category string
}

// Diagnose traces the client's anycast route and its route to the
// geographically closest front-end, and explains the difference.
func (tr *Tracer) Diagnose(c bgp.Client, day int) Diagnosis {
	bb := tr.Router.Backbone()
	at := tr.TraceAnycast(c, day)
	// Closest front-end by air.
	var closest topology.SiteID = topology.InvalidSite
	best := units.Kilometers(-1)
	for _, fe := range bb.FrontEnds() {
		d := geo.DistanceKm(c.Point, bb.Site(fe).Metro.Point)
		if closest == topology.InvalidSite || d < best {
			closest, best = fe, d
		}
	}
	ut := tr.TraceUnicast(c, closest)
	d := Diagnosis{
		AnycastTrace: at,
		BestUnicast:  ut,
		ExcessKm:     at.TotalKm() - ut.TotalKm(),
	}
	switch {
	case d.ExcessKm < 100:
		d.Category = "anycast near-optimal"
	case len(at.Hops) > 2:
		d.Category = "intradomain detour: ingress lacks a colocated front-end (paper's router A/B example)"
	default:
		d.Category = "remote peering: ISP egress policy hands off far from the client (paper's Denver→Phoenix, Moscow→Stockholm examples)"
	}
	return d
}
