package experiments

import (
	"fmt"
	"math"

	"anycastcdn/internal/beacon"
	"anycastcdn/internal/bgp"
	"anycastcdn/internal/cdn"
	"anycastcdn/internal/geo"
	"anycastcdn/internal/stats"
	"anycastcdn/internal/units"
	"anycastcdn/internal/xrand"
)

// fig1Ns are Figure 1's candidate counts N.
var fig1Ns = [...]int{1, 3, 5, 7, 9}

// Figure1 reproduces the diminishing-returns validation of §3.3: the CDF
// over client /24s of the minimum latency observed when measuring to the
// nearest N candidate front-ends (N = 1, 3, 5, 7, 9). The paper uses it to
// argue ten candidates suffice; the lines for N >= 5 should nearly overlap.
func (s *StreamSuite) Figure1() Report {
	mins := s.fig1Minima()
	fig := &stats.Figure{
		Title:  "Figure 1: CDF over /24s of min latency to the nearest N front-ends",
		XLabel: "min latency (ms)",
		YLabel: "CDF of /24s",
	}
	grid := stats.LinearGrid[units.Millis](0, 200, 20)
	medianAt := map[int]units.Millis{}
	for j, n := range fig1Ns {
		e, err := stats.NewECDF(mins[j])
		if err != nil {
			continue
		}
		fig.Series = append(fig.Series, e.SampleCDF(fmt.Sprintf("%d front-ends", n), grid))
		medianAt[n] = e.Quantile(0.5)
	}
	gain13 := medianAt[1] - medianAt[3]
	gain59 := medianAt[5] - medianAt[9]
	return Report{
		ID:     "fig1",
		Figure: fig,
		Lines: []Headline{
			{
				Name:     "adding front-ends beyond the 5th helps little",
				Paper:    "5th+ lines nearly overlap",
				Measured: fmt.Sprintf("median gain 1→3: %s; 5→9: %s", msStr(gain13), msStr(gain59)),
			},
		},
	}
}

// fig1Minima measures Figure 1 on day 0 for the population's first
// clients: mins[j][i] is client i's minimum latency to its nearest
// fig1Ns[j] candidates, each candidate's latency being the minimum over
// the client's repetitions. Each client's repetitions run through one
// beacon.Batch. The clients split into Cfg.Workers contiguous ranges
// measured in parallel (StreamSuite.ranges), and every client writes
// only its own slots, so the split changes no output.
func (s *StreamSuite) fig1Minima() [len(fig1Ns)][]units.Millis {
	const (
		repetitions = 4
		maxClients  = 4000
	)
	w := s.World
	cs := w.Population.Clients
	if len(cs) > maxClients {
		cs = cs[:maxClients]
	}
	var mins [len(fig1Ns)][]units.Millis
	for j := range mins {
		mins[j] = make([]units.Millis, len(cs))
	}
	eachRange(s.ranges(len(cs)), func(_, lo, hi int) {
		var b beacon.Batch
		var samples []beacon.TargetSample
		var perRank []units.Millis // latency per candidate rank, min over repetitions
		for i := lo; i < hi; i++ {
			c := cs[i]
			rc := bgp.Client{PrefixID: c.ID, Point: c.Point, ISP: c.ISP}
			b.Start(w.Executor, c, 0, w.Router.Assign(rc, w.Router.BaseIngress(rc)))
			perRank = perRank[:0]
			for rep := range repetitions {
				samples = b.CandidateSamples(samples[:0], xrand.DeriveSeed(s.Cfg.Seed, "fig1", c.ID, uint64(rep)))
				if rep == 0 {
					for range samples {
						perRank = append(perRank, units.Millis(math.Inf(1)))
					}
				}
				for r, ts := range samples {
					if ts.RTTms < perRank[r] {
						perRank[r] = ts.RTTms
					}
				}
			}
			for j, n := range fig1Ns {
				best := units.Millis(math.Inf(1))
				for _, rtt := range perRank[:min(n, len(perRank))] {
					if rtt < best {
						best = rtt
					}
				}
				mins[j][i] = best
			}
		}
	})
	return mins
}

// Figure2 reproduces the deployment-density view of §4: the CDF, weighted
// by client query volume, of the distance from clients to their 1st-4th
// closest front-end. Paper medians: ~280 km (1st), ~700 km (2nd),
// ~1300 km (4th).
func (s *StreamSuite) Figure2() Report {
	w := s.World
	fes, bb := w.Deployment.FrontEnds, w.Deployment.Backbone
	set := bb.FrontEndSet()
	dists := make([][]units.Kilometers, 4) // rank -> per-client distance
	var weights []float64
	order := make([]int, 4)
	for _, c := range w.Population.Clients {
		order = set.RankInto(c.Point, 4, order)
		for r, k := range order {
			dists[r] = append(dists[r], geo.DistanceKm(c.Point, bb.Site(fes[k].Site).Metro.Point))
		}
		weights = append(weights, c.Volume)
	}
	fig := &stats.Figure{
		Title:  "Figure 2: distance from volume-weighted clients to Nth closest front-end",
		XLabel: "distance (km, log)",
		YLabel: "CDF of clients weighted by query volume",
	}
	grid := stats.LogGrid[units.Kilometers](64, 8192, 14)
	var medians [4]units.Kilometers
	for r := 0; r < 4; r++ {
		e, err := stats.NewWeightedECDF(dists[r], weights)
		if err != nil {
			continue
		}
		fig.Series = append(fig.Series, e.SampleCDF(fmt.Sprintf("%s closest", ordinal(r+1)), grid))
		medians[r] = e.Quantile(0.5)
	}
	return Report{
		ID:     "fig2",
		Figure: fig,
		Lines: []Headline{
			{Name: "median distance to 1st closest", Paper: "280 km", Measured: km(medians[0])},
			{Name: "median distance to 2nd closest", Paper: "700 km", Measured: km(medians[1])},
			{Name: "median distance to 4th closest", Paper: "1300 km", Measured: km(medians[3])},
		},
	}
}

func ordinal(n int) string {
	switch n {
	case 1:
		return "1st"
	case 2:
		return "2nd"
	case 3:
		return "3rd"
	default:
		return fmt.Sprintf("%dth", n)
	}
}

// CDNSizeTable reproduces the §4 comparison of public CDN deployment
// sizes, with the four outliers the paper sets aside marked.
func CDNSizeTable() Report {
	cat := cdn.Catalog()
	tb := &stats.Table{
		Title:   "Section 4: CDN deployment size comparison",
		Columns: []string{"cdn", "locations", "anycast", "outlier", "note"},
	}
	minLoc, maxLoc := 1<<30, 0
	for _, c := range cat {
		any, out := "", ""
		if c.Anycast {
			any = "yes"
		}
		if c.Outlier {
			out = "yes"
		} else if c.Name != "bing" {
			if c.Locations < minLoc {
				minLoc = c.Locations
			}
			if c.Locations > maxLoc {
				maxLoc = c.Locations
			}
		}
		tb.Rows = append(tb.Rows, []string{
			c.Name, fmt.Sprintf("%d", c.Locations), any, out, c.Note,
		})
	}
	return Report{
		ID:    "cdn-table",
		Table: tb,
		Lines: []Headline{
			{Name: "non-outlier deployment range", Paper: "17 (CDNify) – 161 (CDNetworks)",
				Measured: fmt.Sprintf("%d – %d", minLoc, maxLoc)},
			{Name: "measured CDN scale", Paper: "a few dozen locations, similar to Level3/MaxCDN",
				Measured: "64 front-end locations (default deployment)"},
		},
	}
}

// Figure3 reproduces the headline anycast-vs-unicast comparison (§5): the
// CCDF over requests of how much slower anycast was than the best of the
// three measured unicast front-ends, split by region (Europe / World /
// United States). Paper: anycast >= 25 ms slower for ~20% of requests,
// >= 100 ms slower for just under 10%.
func (s *StreamSuite) Figure3() Report {
	fig := &stats.Figure{
		Title:  "Figure 3: CCDF of requests by anycast latency penalty vs best of 3 unicast",
		XLabel: "anycast - best unicast (ms)",
		YLabel: "CCDF of requests",
	}
	grid := stats.LinearGrid[units.Millis](0, 100, 20)
	var worldAt25, worldAt100 float64
	for _, line := range []struct {
		name string
		data []units.Millis
	}{{"Europe", s.beacons.europe}, {"World", s.beacons.world}, {"United States", s.beacons.us}} {
		e, err := stats.NewECDF(line.data)
		if err != nil {
			continue
		}
		fig.Series = append(fig.Series, e.SampleCCDF(line.name, grid))
		if line.name == "World" {
			worldAt25 = e.CCDF(25)
			worldAt100 = e.CCDF(100)
		}
	}
	return Report{
		ID:     "fig3",
		Figure: fig,
		Lines: []Headline{
			{Name: "requests with anycast >= 25 ms slower", Paper: "~20%", Measured: pct(worldAt25)},
			{Name: "requests with anycast >= 100 ms slower", Paper: "just under 10%", Measured: pct(worldAt100)},
		},
	}
}

// Figure4 reproduces the geographic view of anycast routing (§5): CDFs of
// the distance between clients and their anycast front-end, and of the
// distance *past* the closest front-end, weighted and unweighted. Paper:
// ~55% of clients go to the closest front-end; 75% within ~400 km of
// closest; ~82% of clients (87% of volume) within 2000 km. It reads day
// 0's served rows. Each distance column, in client order, is sorted once
// with its volume weights; the unweighted line counts over the same
// sorted samples (stats.ECDF.Unweighted), which is the ECDF an all-ones
// weighting would build.
func (s *StreamSuite) Figure4() Report {
	n := len(s.served)
	toFE, past := make([]units.Kilometers, n), make([]units.Kilometers, n)
	volume := make([]float64, n)
	for i, r := range s.served {
		toFE[i], past[i], volume[i] = r.toFE, r.past, r.volume
	}
	fig := &stats.Figure{
		Title:  "Figure 4: distance between clients and their anycast front-end",
		XLabel: "distance (km, log)",
		YLabel: "CDF",
	}
	grid := stats.LogGrid[units.Kilometers](64, 8192, 14)
	var lines []Headline
	add := func(name string, e *stats.ECDF[units.Kilometers]) {
		if e != nil {
			fig.Series = append(fig.Series, e.SampleCDF(name, grid))
		}
	}
	wPast, uPast := weightedAndCounted(past, volume)
	add("weighted past closest", wPast)
	add("clients past closest", uPast)
	wTo, uTo := weightedAndCounted(toFE, volume)
	add("weighted to front-end", wTo)
	add("clients to front-end", uTo)
	if uPast != nil && uTo != nil && wTo != nil && wPast != nil {
		lines = []Headline{
			{Name: "clients directed to their closest front-end", Paper: "~55%",
				Measured: pct(uPast.P(1))}, // within 1 km of closest == closest
			{Name: "clients within 400 km past closest", Paper: "~75%", Measured: pct(uPast.P(400))},
			{Name: "clients within 1375 km past closest", Paper: "~90%", Measured: pct(uPast.P(1375))},
			{Name: "clients within 2000 km of anycast front-end", Paper: "~82%", Measured: pct(uTo.P(2000))},
			{Name: "query volume within 2000 km of anycast front-end", Paper: "~87%", Measured: pct(wTo.P(2000))},
		}
	}
	return Report{ID: "fig4", Figure: fig, Lines: lines}
}

// weightedAndCounted builds a column's weighted ECDF and its unweighted
// twin from one sort; either is nil where it cannot be built. A weighting
// that fails (say, zero total volume) still leaves the unweighted line.
func weightedAndCounted(xs []units.Kilometers, ws []float64) (weighted, counted *stats.ECDF[units.Kilometers]) {
	if e, err := stats.NewWeightedECDF(xs, ws); err == nil {
		return e, e.Unweighted()
	}
	if e, err := stats.NewECDF(xs); err == nil {
		return nil, e
	}
	return nil, nil
}
