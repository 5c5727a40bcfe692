package experiments

import (
	"fmt"
	"time"

	"anycastcdn/internal/core"
	"anycastcdn/internal/stats"
	"anycastcdn/internal/units"
)

// Figure5 reproduces the daily poor-path prevalence analysis (§5): for
// each day, the fraction of client /24s for which some unicast front-end's
// median latency beats the anycast median by more than each threshold.
// Paper averages: 19% see any improvement, 12% see >= 10 ms, 4% >= 50 ms.
func (s *StreamSuite) Figure5() Report {
	fig := &stats.Figure{
		Title:  "Figure 5: daily fraction of /24s improvable over anycast by threshold",
		XLabel: "day",
		YLabel: "fraction of client /24s",
	}
	series := make([]stats.Series, len(fig5Thresholds))
	for i, th := range fig5Thresholds {
		name := "all"
		if th > 0 {
			name = fmt.Sprintf("> %.0fms", th)
		}
		series[i] = stats.Series{Name: name}
	}
	var avg [len(fig5Thresholds)]float64
	days := s.beacons.fig5
	for _, d := range days {
		for i, n := range d.over {
			frac := float64(n) / float64(d.n)
			series[i].Points = append(series[i].Points, stats.SeriesPoint{X: float64(d.day), Y: frac})
			avg[i] += frac
		}
	}
	for i := range avg {
		avg[i] /= float64(max(len(days), 1))
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
func (s *StreamSuite) Figure6() Report {
	var counts, streaks []float64
	for _, cb := range s.beacons.clients {
		if cb.poorDays > 0 {
			counts = append(counts, float64(cb.poorDays))
			streaks = append(streaks, float64(cb.longest))
		}
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
// per weekday, <0.5% on weekend days, 21% by week's end. It reads the
// per-client window states and mirrors logs.CumulativeSwitched exactly,
// with integer counts over the clients seen in the window: a client
// without traffic on a day is not observable that day (the paper can
// only observe clients that appear in logs), and a client's first
// visible front-end change marks every later day of the week.
func (s *StreamSuite) Figure7() Report {
	cum := make([]float64, figure7Week)
	perDay := make([]int, figure7Week)
	nSeen := 0
	for _, st := range s.window {
		if st != unseen {
			nSeen++
		}
		if st >= 0 {
			perDay[st]++
		}
	}
	for d, n := 0, 0; nSeen > 0 && d < figure7Week; d++ {
		n += perDay[d]
		cum[d] = float64(n) / float64(nSeen)
	}
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
	for d := 1; d < figure7Week; d++ {
		if wd := s.World.Router.Weekday(d); wd == time.Saturday || wd == time.Sunday {
			weekendDelta += cum[d] - cum[d-1]
		}
	}
	return Report{
		ID:     "fig7",
		Figure: fig,
		Lines: []Headline{
			{Name: "clients on multiple front-ends within first day", Paper: "7%", Measured: pct(cum[0])},
			{Name: "clients switched within the week", Paper: "21%", Measured: pct(cum[figure7Week-1])},
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
// Paper: median 483 km, 83% within 2000 km. It reads the suite's sketch,
// whose unweighted samples make the sketch bit-identical regardless of
// observation or merge order.
func (s *StreamSuite) Figure8() Report {
	fig := &stats.Figure{
		Title:  "Figure 8: distance between old and new front-end on a switch",
		XLabel: "distance (km, log)",
		YLabel: "CDF of front-end changes",
	}
	var med units.Kilometers
	var within2000 float64
	if s.sketch.N() > 0 {
		fig.Series = append(fig.Series, s.sketch.SampleCDF("front-end changes", stats.LogGrid[units.Kilometers](64, 8192, 14)))
		med = s.sketch.Quantile(0.5)
		within2000 = s.sketch.P(2000)
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
func (s *StreamSuite) Figure9() Report { return s.beacons.pred.figure9() }

func (f *predictionFold) figure9() Report {
	fig := &stats.Figure{
		Title:  "Figure 9: improvement over anycast from prediction (25th-pct metric)",
		XLabel: "improvement (ms)",
		YLabel: "CDF of weighted /24s",
	}
	grid := stats.LinearGrid[units.Millis](-400, 400, 32)
	var lines []Headline
	for i, spec := range fig9Lines {
		e, err := stats.NewWeightedECDF(f.lines[i].xs, f.lines[i].ws)
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
func (s *StreamSuite) All() []Report {
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
