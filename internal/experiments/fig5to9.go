package experiments

import (
	"fmt"
	"time"

	"anycastcdn/internal/core"
	"anycastcdn/internal/geo"
	"anycastcdn/internal/logs"
	"anycastcdn/internal/stats"
	"anycastcdn/internal/topology"
	"anycastcdn/internal/units"
)

// Figure5 reproduces the daily poor-path prevalence analysis (§5): for
// each day, the fraction of client /24s for which some unicast front-end's
// median latency beats the anycast median by more than each threshold.
// Paper averages: 19% see any improvement, 12% see >= 10 ms, 4% >= 50 ms.
func (s *Suite) Figure5() Report {
	thresholds := []units.Millis{0, 10, 25, 50, 100}
	daily := s.DailyComparisons()
	fig := &stats.Figure{
		Title:  "Figure 5: daily fraction of /24s improvable over anycast by threshold",
		XLabel: "day",
		YLabel: "fraction of client /24s",
	}
	series := make([]stats.Series, len(thresholds))
	for i, th := range thresholds {
		name := "all"
		if th > 0 {
			name = fmt.Sprintf("> %.0fms", th)
		}
		series[i] = stats.Series{Name: name}
	}
	avg := make([]float64, len(thresholds))
	daysCounted := 0
	for day, comps := range daily {
		if len(comps) == 0 {
			continue
		}
		daysCounted++
		for i, th := range thresholds {
			n := 0
			for _, c := range comps {
				if c.ImprovementMs > th {
					n++
				}
			}
			frac := float64(n) / float64(len(comps))
			series[i].Points = append(series[i].Points, stats.SeriesPoint{X: float64(day), Y: frac})
			avg[i] += frac
		}
	}
	if daysCounted > 0 {
		for i := range avg {
			avg[i] /= float64(daysCounted)
		}
	}
	fig.Series = series
	return Report{
		ID:     "fig5",
		Figure: fig,
		Lines: []Headline{
			{Name: "avg /24s with any unicast improvement", Paper: "19%", Measured: pct(avg[0])},
			{Name: "avg /24s with >= 10 ms improvement", Paper: "12%", Measured: pct(avg[1])},
			{Name: "avg /24s with >= 50 ms improvement", Paper: "4%", Measured: pct(avg[3])},
		},
	}
}

// Figure6 reproduces the poor-path duration analysis (§5): among /24s
// that ever had a poor anycast path (any unicast improvement), the CDF of
// how many days they were poor, and of their maximum consecutive poor-day
// streak. Paper: ~60% poor on only one day; ~10% poor on 5+ days; ~5%
// continuously poor for 5+ days.
func (s *Suite) Figure6() Report {
	daily := s.DailyComparisons()
	poorDays := map[uint64][]int{}
	for day, comps := range daily {
		for _, c := range comps {
			if c.ImprovementMs > 0 {
				poorDays[c.ClientID] = append(poorDays[c.ClientID], day)
			}
		}
	}
	var counts, streaks []float64
	//replay:commutative counts and streaks feed ECDFs, which sort their samples; the output is independent of collection order
	for _, days := range poorDays {
		counts = append(counts, float64(len(days)))
		// days are appended in ascending day order.
		maxStreak, cur := 1, 1
		for i := 1; i < len(days); i++ {
			if days[i] == days[i-1]+1 {
				cur++
			} else {
				cur = 1
			}
			if cur > maxStreak {
				maxStreak = cur
			}
		}
		streaks = append(streaks, float64(maxStreak))
	}
	fig := &stats.Figure{
		Title:  "Figure 6: duration of poor anycast performance across the month",
		XLabel: "number of days",
		YLabel: "CDF of client /24s with any poor day",
	}
	grid := stats.LinearGrid[float64](1, 15, 14)
	var oneDay, fivePlus, fiveConsec float64
	if e, err := stats.NewECDF(counts); err == nil {
		fig.Series = append(fig.Series, e.SampleCDF("# days", grid))
		oneDay = e.P(1)
		fivePlus = e.CCDF(4.5)
	}
	if e, err := stats.NewECDF(streaks); err == nil {
		fig.Series = append(fig.Series, e.SampleCDF("max # consecutive days", grid))
		fiveConsec = e.CCDF(4.5)
	}
	return Report{
		ID:     "fig6",
		Figure: fig,
		Lines: []Headline{
			{Name: "poor /24s poor on only one day", Paper: "~60%", Measured: pct(oneDay)},
			{Name: "poor /24s poor on 5+ days", Paper: "~10%", Measured: pct(fivePlus)},
			{Name: "poor /24s with 5+ consecutive poor days", Paper: "~5%", Measured: pct(fiveConsec)},
		},
	}
}

// figure7Week is Figure 7's window: one week starting Wednesday.
const figure7Week = 7

// Figure7 reproduces the front-end affinity analysis (§5): the cumulative
// fraction of clients that have changed front-ends at least once by each
// day of a week starting Wednesday. Paper: 7% after the first day, +2-4%
// per weekday, <0.5% on weekend days, 21% by week's end.
func (s *Suite) Figure7() Report { return s.stream().Figure7() }

// switchAgg accumulates Figure 7's cumulative-switch analysis one passive
// record at a time for StreamSuite. It mirrors logs.CumulativeSwitched
// exactly — integer counting in dense arrays indexed by client ID, so the
// result is independent of observation order: clients with no traffic on a day don't count as active (the
// paper can only observe clients that appear in logs), and a client's
// first visible front-end change marks every later day of the window.
// The dense layout is also the distributed merge's entry point: shard
// deltas arrive as per-day ID lists and bump these arrays directly.
type switchAgg struct {
	days int
	// firstChange[c] is the first in-window day client c visibly changed
	// front-ends, -1 if never.
	firstChange []int32
	active      []bool
}

func newSwitchAgg(days, n int) *switchAgg {
	fc := make([]int32, n)
	for i := range fc {
		fc[i] = -1
	}
	return &switchAgg{days: days, firstChange: fc, active: make([]bool, n)}
}

func (a *switchAgg) observe(r logs.DayRecord) {
	if r.Day < 0 || r.Day >= a.days || r.Queries == 0 {
		return
	}
	a.active[r.ClientID] = true
	if r.FrontEndChanged() {
		if d := a.firstChange[r.ClientID]; d < 0 || int32(r.Day) < d {
			a.firstChange[r.ClientID] = int32(r.Day)
		}
	}
}

// cumulative computes the per-day cumulative switched fraction — the same
// output as logs.CumulativeSwitched over the records observed.
func (a *switchAgg) cumulative() []float64 {
	out := make([]float64, a.days)
	nActive := 0
	for _, on := range a.active {
		if on {
			nActive++
		}
	}
	if nActive == 0 {
		return out
	}
	perDay := make([]int, a.days)
	for _, d := range a.firstChange {
		if d >= 0 {
			perDay[d]++
		}
	}
	cum := 0
	for d := 0; d < a.days; d++ {
		cum += perDay[d]
		out[d] = float64(cum) / float64(nActive)
	}
	return out
}

func (a *switchAgg) report(weekday func(day int) time.Weekday) Report {
	cum := a.cumulative()
	fig := &stats.Figure{
		Title:  "Figure 7: cumulative fraction of clients that changed front-end during a week",
		XLabel: "day of week (0 = Wednesday)",
		YLabel: "cumulative fraction of clients",
	}
	series := stats.Series{Name: "switched at least once"}
	for d, v := range cum {
		series.Points = append(series.Points, stats.SeriesPoint{X: float64(d), Y: v})
	}
	fig.Series = []stats.Series{series}
	var weekendDelta float64
	for d := 1; d < a.days; d++ {
		if weekday(d) == time.Saturday || weekday(d) == time.Sunday {
			weekendDelta += cum[d] - cum[d-1]
		}
	}
	return Report{
		ID:     "fig7",
		Figure: fig,
		Lines: []Headline{
			{Name: "clients on multiple front-ends within first day", Paper: "7%", Measured: pct(cum[0])},
			{Name: "clients switched within the week", Paper: "21%", Measured: pct(cum[a.days-1])},
			{Name: "weekend churn (sum of Sat+Sun additions)", Paper: "<1% (<0.5%/day)", Measured: pct(weekendDelta)},
		},
	}
}

// Figure 8's sketch layout: 128 log-spaced bins over [62.5, 16000) km,
// a factor of 2^(1/16) per bin (≈4.4% distance resolution), with 2000 km —
// the figure's headline threshold — landing exactly on a bin boundary.
const (
	fig8SketchLo   units.Kilometers = 62.5
	fig8SketchHi   units.Kilometers = 16000
	fig8SketchBins                  = 128
)

// Figure8 reproduces the switch-distance analysis (§5): the CDF of the
// change in client-to-front-end distance when the front-end changes.
// Paper: median 483 km, 83% within 2000 km.
func (s *Suite) Figure8() Report { return s.stream().Figure8() }

// fig8Agg accumulates switch distances into a constant-memory quantile
// sketch for StreamSuite. Unweighted samples make the
// sketch bit-identical regardless of observation order. The observability
// filter matches logs.SwitchDistancesKm: a switch on a zero-query day has
// no log row in a real passive log, so it is invisible to the figure —
// the same rule Figure 7 applies.
type fig8Agg struct {
	bb     *topology.Backbone
	sketch *stats.QuantileSketch[units.Kilometers]
}

func newFig8Agg(bb *topology.Backbone) *fig8Agg {
	// The layout is constant and valid, so the error path is unreachable;
	// if it were ever hit, the nil sketch degrades to an empty figure.
	sk, _ := stats.NewLogQuantileSketch(fig8SketchLo, fig8SketchHi, fig8SketchBins)
	return &fig8Agg{bb: bb, sketch: sk}
}

func (a *fig8Agg) observe(r logs.DayRecord) {
	if a.sketch == nil || r.Queries == 0 || !r.FrontEndChanged() {
		return
	}
	from := a.bb.Site(r.PrevFrontEnd).Metro.Point
	to := a.bb.Site(r.FrontEnd).Metro.Point
	a.sketch.Add(geo.DistanceKm(from, to))
}

func (a *fig8Agg) report() Report {
	fig := &stats.Figure{
		Title:  "Figure 8: distance between old and new front-end on a switch",
		XLabel: "distance (km, log)",
		YLabel: "CDF of front-end changes",
	}
	var med units.Kilometers
	var within2000 float64
	if a.sketch != nil && a.sketch.N() > 0 {
		fig.Series = append(fig.Series, a.sketch.SampleCDF("front-end changes", stats.LogGrid[units.Kilometers](64, 8192, 14)))
		med = a.sketch.Quantile(0.5)
		within2000 = a.sketch.P(2000)
	}
	return Report{
		ID:     "fig8",
		Figure: fig,
		Lines: []Headline{
			{Name: "median switch distance", Paper: "483 km", Measured: km(med)},
			{Name: "switches within 2000 km", Paper: "83%", Measured: pct(within2000)},
		},
	}
}

// Figure9 reproduces the prediction evaluation (§6): train the §6 scheme
// on each day's beacon measurements and evaluate on the next day,
// reporting the CDF (weighted by query volume) of improvement over anycast
// for ECS-prefix grouping and LDNS grouping at the 50th and 75th
// evaluation percentiles. Paper: with ECS, ~30% of weighted prefixes
// improve and ~10% get worse; with LDNS, ~27% improve and ~17% get worse.
func (s *Suite) Figure9() Report {
	return s.figure9(core.DefaultConfig())
}

// Figure9WithConfig is Figure9 under a custom predictor configuration
// (used by the ablation benches).
func (s *Suite) Figure9WithConfig(cfg core.Config) Report { return s.figure9(cfg) }

func (s *Suite) figure9(cfg core.Config) Report {
	pred := core.NewPredictor(cfg)
	vols := s.Res.Volumes()
	// Convert each day's beacons to observations once.
	days := len(s.Res.Beacons)
	obs := make([][]core.Observation, days)
	for d := 0; d < days; d++ {
		obs[d] = make([]core.Observation, 0, 4*len(s.Res.Beacons[d]))
		for _, m := range s.Res.Beacons[d] {
			obs[d] = append(obs[d], core.FromMeasurement(m)...)
		}
	}
	type lineSpec struct {
		name     string
		grouping core.Grouping
		pctile   float64
	}
	specs := []lineSpec{
		{"EDNS-0 Median", core.ByPrefix, 0.50},
		{"EDNS-0 75th", core.ByPrefix, 0.75},
		{"LDNS Median", core.ByLDNS, 0.50},
		{"LDNS 75th", core.ByLDNS, 0.75},
	}
	fig := &stats.Figure{
		Title:  "Figure 9: improvement over anycast from prediction (25th-pct metric)",
		XLabel: "improvement (ms)",
		YLabel: "CDF of weighted /24s",
	}
	grid := stats.LinearGrid[units.Millis](-400, 400, 32)
	var lines []Headline
	for _, spec := range specs {
		var improvements []units.Millis
		var weights []float64
		for d := 0; d+1 < days; d++ {
			trained := pred.Train(obs[d], spec.grouping)
			evals := core.Evaluator{Percentile: spec.pctile, MinSamples: 2}.
				Evaluate(trained, obs[d+1], vols)
			for _, e := range evals {
				improvements = append(improvements, e.ImprovementMs)
				weights = append(weights, e.Weight)
			}
		}
		e, err := stats.NewWeightedECDF(improvements, weights)
		if err != nil {
			continue
		}
		fig.Series = append(fig.Series, e.SampleCDF(spec.name, grid))
		improved := e.CCDF(0.5) // at least 1 ms better (ms-rounded data)
		worse := e.P(-0.5)      // at least 1 ms worse
		if spec.pctile == 0.50 {
			paperImproved, paperWorse := "~30%", "~10%"
			if spec.grouping == core.ByLDNS {
				paperImproved, paperWorse = "~27%", "~17%"
			}
			lines = append(lines,
				Headline{Name: spec.name + ": weighted /24s improved", Paper: paperImproved, Measured: pct(improved)},
				Headline{Name: spec.name + ": weighted /24s worse", Paper: paperWorse, Measured: pct(worse)},
			)
		}
	}
	return Report{ID: "fig9", Figure: fig, Lines: lines}
}

// All runs every experiment in paper order.
func (s *Suite) All() []Report {
	return []Report{
		s.Figure1(),
		CDNSizeTable(),
		s.Figure2(),
		s.Figure3(),
		s.Figure4(),
		s.Figure5(),
		s.Figure6(),
		s.Figure7(),
		s.Figure8(),
		s.Figure9(),
	}
}
