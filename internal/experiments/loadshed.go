package experiments

import (
	"fmt"
	"sort"

	"anycastcdn/internal/load"
	"anycastcdn/internal/sim"
	"anycastcdn/internal/stats"
	"anycastcdn/internal/topology"
)

// LoadShedding demonstrates the FastRoute-style load-aware anycast layer
// (the paper's reference [23], run by the measured CDN) on the simulated
// deployment: a flash crowd hits the busiest front-end, and the layered
// balancer sheds fractions of its query load to the next anycast ring
// while a naive route withdrawal cascades (§2's warning). crowdFactor
// scales the hot front-end's demand of day 0.
func (s *StreamSuite) LoadShedding(crowdFactor float64) Report {
	if crowdFactor <= 1 {
		crowdFactor = 4
	}
	w := s.World
	bb := w.Deployment.Backbone
	// Day-0 demand by ingress, and the baseline per-front-end load under
	// plain anycast, summed straight from the served rows in client order.
	demand := map[topology.SiteID]float64{}
	base := map[topology.SiteID]float64{}
	for _, r := range s.served {
		demand[r.ingress] += float64(r.queries)
		fe, _ := bb.HotPotatoFrontEnd(r.ingress)
		base[fe] += float64(r.queries)
	}
	// Hot front-end: the busiest one. Iterate the deterministic front-end
	// list, not the map, so load ties resolve identically on every run.
	var hot topology.SiteID = topology.InvalidSite
	for _, fe := range bb.FrontEnds() {
		if hot == topology.InvalidSite || base[fe] > base[hot] {
			hot = fe
		}
	}
	// Capacity: 1.4x each front-end's baseline (comfortable headroom),
	// with a floor so idle sites can absorb spillover.
	caps := map[topology.SiteID]float64{}
	var mean float64
	for _, fe := range bb.FrontEnds() {
		mean += base[fe]
	}
	mean /= float64(len(bb.FrontEnds()))
	for _, fe := range bb.FrontEnds() {
		c := 1.4 * base[fe]
		if c < mean {
			c = mean
		}
		caps[fe] = c
	}
	// Flash crowd: scale demand at every ingress whose hot-potato FE is
	// the hot site.
	crowd := map[topology.SiteID]float64{}
	for ing, q := range demand {
		fe, _ := bb.HotPotatoFrontEnd(ing)
		if fe == hot {
			q *= crowdFactor
		}
		crowd[ing] = q
	}

	// Layered balancer: ring 0 = every front-end; ring 1 = the highest
	// capacity front-end per region, excluding the flash-crowd site so
	// shed traffic must actually move. FastRoute's deeper rings are
	// backed by large data centers, so ring-1 members get DC-scale
	// capacity.
	ring1 := topCapacityPerRegion(w, caps, hot)
	// Sum in deterministic front-end order: float accumulation in map
	// order would shift the derived capacities' last bits between runs.
	var total float64
	for _, fe := range bb.FrontEnds() {
		total += caps[fe]
	}
	for _, fe := range ring1 {
		if dc := total / 2; caps[fe] < dc {
			caps[fe] = dc
		}
	}
	bal, err := load.NewBalancer(bb, []load.Layer{
		{Sites: bb.FrontEnds()},
		{Sites: ring1},
	}, caps)
	tb := &stats.Table{
		Title:   "FastRoute-style load shedding under a flash crowd ([23], §2)",
		Columns: []string{"quantity", "value"},
	}
	if err != nil {
		tb.Rows = append(tb.Rows, []string{"error", err.Error()})
		return Report{ID: "load-shedding", Table: tb}
	}
	hotUtilBefore := crowdLoad(bb, crowd, hot) / caps[hot]
	maxUtil, steps := bal.Converge(crowd, 300)
	tb.Rows = append(tb.Rows, []string{"hot front-end", bb.Site(hot).Metro.Name})
	tb.Rows = append(tb.Rows, []string{"crowd factor", fmt.Sprintf("%.1fx", crowdFactor)})
	tb.Rows = append(tb.Rows, []string{"hot utilization before shedding", fmt.Sprintf("%.2f", hotUtilBefore)})
	tb.Rows = append(tb.Rows, []string{"max utilization after shedding", fmt.Sprintf("%.2f", maxUtil)})
	tb.Rows = append(tb.Rows, []string{"controller steps to converge", fmt.Sprintf("%d", steps)})
	tb.Rows = append(tb.Rows, []string{"hot site shed fraction", fmt.Sprintf("%.2f", bal.ShedFraction(0, hot))})

	// Naive withdrawal cascade length under the same crowd.
	cascade := len(load.WithdrawnSet(bb, crowd, caps))
	tb.Rows = append(tb.Rows, []string{"route-withdrawal cascade length", fmt.Sprintf("%d front-ends", cascade)})

	lines := []Headline{
		{
			Name:     "gradual shedding avoids the overload",
			Paper:    "withdrawing a route 'can lead to cascading overloading' (§2)",
			Measured: fmt.Sprintf("shedding max util %.2f vs withdrawal cascade of %d sites", maxUtil, cascade),
		},
	}
	return Report{ID: "load-shedding", Table: tb, Lines: lines}
}

// crowdLoad is the plain-anycast load on one front-end under a demand map.
func crowdLoad(bb *topology.Backbone, demand map[topology.SiteID]float64, fe topology.SiteID) float64 {
	ings := make([]topology.SiteID, 0, len(demand))
	//replay:commutative keys only; sorted immediately below, so collection order is discarded
	for ing := range demand {
		ings = append(ings, ing)
	}
	sort.Slice(ings, func(i, j int) bool { return ings[i] < ings[j] })
	// Sorted ingress order keeps the float sum bit-stable across runs.
	var total float64
	for _, ing := range ings {
		if f, _ := bb.HotPotatoFrontEnd(ing); f == fe {
			total += demand[ing]
		}
	}
	return total
}

// topCapacityPerRegion picks the highest-capacity front-end of each region
// as the deeper anycast ring.
func topCapacityPerRegion(w *sim.World, caps map[topology.SiteID]float64, exclude topology.SiteID) []topology.SiteID {
	best := map[string]topology.SiteID{}
	for _, fe := range w.Deployment.Backbone.FrontEnds() {
		if fe == exclude {
			continue
		}
		region := string(w.Deployment.Backbone.Site(fe).Metro.Region)
		cur, ok := best[region]
		if !ok || caps[fe] > caps[cur] {
			best[region] = fe
		}
	}
	out := make([]topology.SiteID, 0, len(best))
	//replay:commutative values are sorted immediately below, so collection order is discarded
	for _, fe := range best {
		out = append(out, fe)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
