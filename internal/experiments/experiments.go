// Package experiments regenerates every table and figure of the paper's
// evaluation from a simulation run. Each FigureN function returns a Report
// holding the figure's series (the same rows/lines the paper plots) plus
// headline numbers with the paper's value alongside the measured value, so
// EXPERIMENTS.md and cmd/repro can compare shapes directly.
package experiments

import (
	"fmt"

	"anycastcdn/internal/bgp"
	"anycastcdn/internal/core"
	"anycastcdn/internal/sim"
	"anycastcdn/internal/stats"
	"anycastcdn/internal/units"
)

// Headline is one paper-vs-measured comparison point.
type Headline struct {
	Name     string
	Paper    string
	Measured string
}

// Report is the output of one experiment.
type Report struct {
	ID     string // "fig1" .. "fig9", "cdn-table"
	Figure *stats.Figure
	Table  *stats.Table
	Lines  []Headline
}

// Render formats the report for terminal output.
func (r Report) Render() string {
	out := ""
	if r.Figure != nil {
		out += r.Figure.Render()
	}
	if r.Table != nil {
		out += r.Table.Render()
	}
	if len(r.Lines) > 0 {
		out += "-- paper vs measured --\n"
		for _, h := range r.Lines {
			out += fmt.Sprintf("%-52s  paper: %-18s  measured: %s\n", h.Name, h.Paper, h.Measured)
		}
	}
	return out
}

// Suite is a StreamSuite fed from a materialized Result: NewSuite replays
// the Result's days into it once, in stream order, so a batch run and a
// streaming run are one analysis by construction.
type Suite struct {
	*StreamSuite
	Res *sim.Result
}

// NewSuite folds a simulation result into a Suite.
func NewSuite(res *sim.Result) *Suite {
	ss := NewStreamSuite(res.Cfg, res.World)
	days := res.Cfg.Days
	d := sim.DayResult{Assignments: make([]bgp.Assignment, len(res.Assignments))}
	for d.Day = 0; d.Day < days; d.Day++ {
		for i := range d.Assignments {
			d.Assignments[i] = res.Assignments[i][d.Day]
		}
		d.Passive = res.Passive[d.Day]
		d.Beacons = res.Beacons[d.Day]
		// Observe retains nothing and never fails.
		_ = ss.Observe(d)
	}
	return &Suite{StreamSuite: ss, Res: res}
}

// Figure9WithConfig is Figure 9 under a custom predictor configuration
// (used by the ablation benches): the Result's beacons replayed through
// a fresh Figure 9 fold.
func (s *Suite) Figure9WithConfig(cfg core.Config) Report {
	f := newPredictionFold(cfg, false)
	var obs []core.Observation
	for _, ms := range s.Res.Beacons {
		obs = appendObservations(obs[:0], ms)
		f.observe(obs, s.volume, nil)
	}
	return f.figure9()
}

// pct formats a fraction as a percentage string.
func pct(f float64) string { return fmt.Sprintf("%.1f%%", 100*f) }

// km formats a distance.
func km(d units.Kilometers) string { return fmt.Sprintf("%.0f km", d) }

// msStr formats a latency.
func msStr(d units.Millis) string { return fmt.Sprintf("%.1f ms", d) }
