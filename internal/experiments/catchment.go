package experiments

import (
	"fmt"
	"sort"

	"anycastcdn/internal/stats"
	"anycastcdn/internal/topology"
	"anycastcdn/internal/units"
)

type catchmentFE struct {
	clients int
	volume  float64
	dists   []units.Kilometers
}

// Catchments characterizes each front-end's anycast catchment on day 0 of
// the passive logs: how many clients and how much query volume BGP
// delivers to it, and how geographically tight that catchment is. This is
// the operator-facing companion to Figure 4 — the same data viewed from
// the server side — and quantifies the load imbalance §2 says anycast
// cannot control ("anycast is unaware of server load"). It reads day 0's
// served rows. Volumes are arbitrary floats, so the per-front-end and
// total sums are order-sensitive in their last bits: they run over the
// rows in client order, however the run was sharded.
func (s *StreamSuite) Catchments(topN int) Report {
	if topN <= 0 {
		topN = 15
	}
	bb := s.World.Deployment.Backbone
	perFE := make([]catchmentFE, bb.NumSites())
	var totalVolume float64
	for _, r := range s.served {
		fe := &perFE[r.fe]
		fe.clients++
		fe.volume += r.volume
		totalVolume += r.volume
		fe.dists = append(fe.dists, r.dist)
	}
	var rows []topology.SiteID
	for fe := range perFE {
		if perFE[fe].clients > 0 {
			rows = append(rows, topology.SiteID(fe))
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		a, b := &perFE[rows[i]], &perFE[rows[j]]
		if a.volume != b.volume {
			return a.volume > b.volume
		}
		return rows[i] < rows[j]
	})

	tb := &stats.Table{
		Title: "Anycast catchments (day 0): the server-side view of Figure 4",
		Columns: []string{
			"front-end", "clients", "volume share",
			"median client km", "p90 client km",
		},
	}
	for i, fe := range rows {
		if i >= topN {
			tb.Notes = append(tb.Notes,
				fmt.Sprintf("%d further front-ends omitted (top %d by volume shown)", len(rows)-topN, topN))
			break
		}
		agg := &perFE[fe]
		med, _ := stats.Quantile(agg.dists, 0.5)
		p90, _ := stats.Quantile(agg.dists, 0.9)
		tb.Rows = append(tb.Rows, []string{
			bb.Site(fe).Metro.Name,
			fmt.Sprintf("%d", agg.clients),
			pct(agg.volume / totalVolume),
			fmt.Sprintf("%.0f", med),
			fmt.Sprintf("%.0f", p90),
		})
	}
	// Imbalance headline: top front-end share vs a uniform share.
	lines := []Headline{}
	if len(rows) > 0 && totalVolume > 0 {
		topShare := perFE[rows[0]].volume / totalVolume
		uniform := 1 / float64(s.World.Deployment.NumFrontEnds())
		lines = append(lines, Headline{
			Name:     "anycast load imbalance (top front-end vs uniform)",
			Paper:    "anycast 'is unaware of server load' (§2)",
			Measured: fmt.Sprintf("%.1f%% vs uniform %.1f%% (%.1fx)", 100*topShare, 100*uniform, topShare/uniform),
		})
	}
	return Report{ID: "catchments", Table: tb, Lines: lines}
}
