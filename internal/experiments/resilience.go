package experiments

import (
	"errors"
	"fmt"

	"anycastcdn/internal/beacon"
	"anycastcdn/internal/faults"
	"anycastcdn/internal/sim"
	"anycastcdn/internal/stats"
	"anycastcdn/internal/units"
)

// EventImpact quantifies one scenario event against the fault-free
// baseline run.
type EventImpact struct {
	Event faults.Event
	// PeakShiftFrac is the largest single-day fraction of clients whose
	// front-end differs from baseline inside the event window.
	PeakShiftFrac float64
	// MeanShiftFrac averages the per-day shift fraction over the window.
	MeanShiftFrac float64
	// BeaconDiffFrac is the fraction of beacon executions in the window
	// that diverge from the baseline run's: a different anycast sample or
	// resolver, or an execution only one run made.
	BeaconDiffFrac float64
	// MeanAnycastDeltaMs is the mean anycast latency change over the
	// window's paired beacon executions (positive = the fault made things
	// worse).
	MeanAnycastDeltaMs units.Millis
	// RecoveryDays is how many days after the event's window the world
	// took to match the baseline again, byte for byte: 0 means the first
	// post-event day was already clean. -1 means the run ended before the
	// world reconverged (e.g. another event was still active).
	RecoveryDays int
}

// ResilienceReport is the run-vs-baseline comparison for one fault
// scenario: the per-day catchment shift and latency deltas, plus a
// per-event impact breakdown. Because both runs share a seed and the
// injector consumes no randomness, every divergence is attributable to
// the scenario and reconvergence is exact.
type ResilienceReport struct {
	Scenario faults.Scenario
	Days     int
	// ShiftFrac[d] is the fraction of clients whose day-d front-end
	// differs from baseline.
	ShiftFrac []float64
	// BeaconDiffFrac[d] is the fraction of day-d beacon executions that
	// diverge from baseline, as EventImpact.BeaconDiffFrac counts them.
	BeaconDiffFrac []float64
	// MeanAnycastDeltaMs[d] is the day's mean anycast latency change over
	// its paired executions.
	MeanAnycastDeltaMs []units.Millis
	// ActiveDeltasMs holds the anycast latency delta of every paired beacon
	// execution on fault-active days, for the delta CDF.
	ActiveDeltasMs []units.Millis
	Events         []EventImpact
}

// Resilience simulates cfg twice — once fault-free, once under sc — and
// reports how the scenario moved catchments and latency and how quickly
// the system returned to baseline. cfg.Scenario is overridden by sc for
// the faulted run and cleared for the baseline. The runs stream in
// lockstep (pairStreams), and each day pair folds straight into the
// report and into the window tally of every event active that day.
func Resilience(cfg sim.Config, sc faults.Scenario) (*ResilienceReport, error) {
	baseCfg := cfg
	baseCfg.Scenario = nil
	faultCfg := cfg
	faultCfg.Scenario = &sc

	bw, err := sim.BuildWorld(baseCfg)
	if err != nil {
		return nil, fmt.Errorf("experiments: baseline run: %w", err)
	}
	fw, err := sim.BuildWorld(faultCfg)
	if err != nil {
		return nil, fmt.Errorf("experiments: faulted run: %w", err)
	}
	days := cfg.Days
	r := &ResilienceReport{
		Scenario:           sc,
		Days:               days,
		ShiftFrac:          make([]float64, days),
		BeaconDiffFrac:     make([]float64, days),
		MeanAnycastDeltaMs: make([]units.Millis, days),
	}
	// windows[k] tallies event k's window, a day at a time in day order.
	windows := make([]beaconTally, len(sc.Events))
	err = pairStreams(baseCfg, bw, faultCfg, fw, func(base, faulted sim.DayResult) {
		d := base.Day
		shifted := 0
		for i := range base.Assignments {
			if faulted.Assignments[i].FrontEnd != base.Assignments[i].FrontEnd {
				shifted++
			}
		}
		if n := len(base.Assignments); n > 0 {
			r.ShiftFrac[d] = float64(shifted) / float64(n)
		}

		var deltas *[]units.Millis
		for k, e := range sc.Events {
			if e.ActiveOn(d) {
				deltas = &r.ActiveDeltasMs
				windows[k].pairBeacons(base.Beacons, faulted.Beacons, nil)
			}
		}
		var day beaconTally
		day.pairBeacons(base.Beacons, faulted.Beacons, deltas)
		r.BeaconDiffFrac[d], r.MeanAnycastDeltaMs[d] = day.result()
	})
	if err != nil {
		return nil, err
	}
	for k, e := range sc.Events {
		r.Events = append(r.Events, r.eventImpact(e, windows[k]))
	}
	return r, nil
}

// errUnpaired reports runs of different lengths; each stream also
// returns it to stop once the other has ended.
var errUnpaired = errors.New("experiments: baseline and faulted runs differ in length")

// pairStreams streams the baseline and the faulted run in lockstep, the
// faulted one on a goroutine of its own, and hands fn day d of both
// while both streams are parked: a stream reuses its day's buffers once
// fn returns. It returns either stream's error under its run's name,
// and errUnpaired when one run ends before the other.
func pairStreams(baseCfg sim.Config, bw *sim.World, faultCfg sim.Config, fw *sim.World, fn func(base, faulted sim.DayResult)) error {
	// The faulted stream hands each day over on days, stays parked until
	// resume says whether to go on, and closes days when it returns.
	days := make(chan sim.DayResult)
	resume := make(chan bool)
	var ferr error
	go func() {
		ferr = sim.StreamWorld(faultCfg, fw, func(d sim.DayResult) error {
			days <- d
			if !<-resume {
				return errUnpaired
			}
			return nil
		})
		close(days)
	}()
	berr := sim.StreamWorld(baseCfg, bw, func(d sim.DayResult) error {
		f, ok := <-days
		if !ok {
			return errUnpaired
		}
		fn(d, f)
		resume <- true
		return nil
	})
	// Join the faulted stream, stopping it at a day the baseline lacks.
	for range days {
		resume <- false
	}
	switch {
	case berr != nil && !errors.Is(berr, errUnpaired):
		return fmt.Errorf("experiments: baseline run: %w", berr)
	case ferr != nil && !errors.Is(ferr, errUnpaired):
		return fmt.Errorf("experiments: faulted run: %w", ferr)
	case berr != nil || ferr != nil:
		return errUnpaired
	}
	return nil
}

// eventImpact summarizes one event's window and recovery; window is the
// event's beacon tally over its window days.
func (r *ResilienceReport) eventImpact(e faults.Event, window beaconTally) EventImpact {
	imp := EventImpact{Event: e, RecoveryDays: -1}
	var shiftSum float64
	winDays := 0
	for d := e.Day; d < e.End() && d < r.Days; d++ {
		if r.ShiftFrac[d] > imp.PeakShiftFrac {
			imp.PeakShiftFrac = r.ShiftFrac[d]
		}
		shiftSum += r.ShiftFrac[d]
		winDays++
	}
	if winDays > 0 {
		imp.MeanShiftFrac = shiftSum / float64(winDays)
	}
	imp.BeaconDiffFrac, imp.MeanAnycastDeltaMs = window.result()
	for d := e.End(); d < r.Days; d++ {
		if r.ShiftFrac[d] == 0 && r.BeaconDiffFrac[d] == 0 {
			imp.RecoveryDays = d - e.End()
			break
		}
	}
	return imp
}

// beaconTally compares the two runs' beacon executions over one or more
// days: paired counts the executions both runs made, diverged those of
// them whose anycast sample or resolver differs, and unpaired those only
// one run made; deltaSum sums the paired ones' anycast latency change.
type beaconTally struct {
	paired, diverged, unpaired int
	deltaSum                   units.Millis
}

// pairBeacons adds one day's executions to the tally. Both runs list a
// day's executions in client order, each client's in query order, and a
// client-day's k-th execution carries the same query ID in both runs; so
// the walk pairs executions by client and position. A surge changes how
// many executions a client makes, and one that only one run made has no
// baseline: it counts as diverged, with no latency change. deltas, if not
// nil, collects each paired execution's change.
func (t *beaconTally) pairBeacons(base, faulted []beacon.Measurement, deltas *[]units.Millis) {
	i, j := 0, 0
	for i < len(base) && j < len(faulted) {
		switch b, f := &base[i], &faulted[j]; {
		case b.ClientID < f.ClientID:
			t.unpaired++
			i++
		case f.ClientID < b.ClientID:
			t.unpaired++
			j++
		default:
			delta := f.Anycast.RTTms - b.Anycast.RTTms
			if delta != 0 || f.Anycast.Site != b.Anycast.Site || f.LDNS != b.LDNS {
				t.diverged++
			}
			t.deltaSum += delta
			t.paired++
			if deltas != nil {
				*deltas = append(*deltas, delta)
			}
			i, j = i+1, j+1
		}
	}
	t.unpaired += len(base) - i + len(faulted) - j
}

// result returns the fraction of executions, paired or not, that
// diverge, and the mean latency change over the paired ones.
func (t *beaconTally) result() (diffFrac float64, meanDelta units.Millis) {
	if n := t.paired + t.unpaired; n > 0 {
		diffFrac = float64(t.diverged+t.unpaired) / float64(n)
	}
	if t.paired > 0 {
		meanDelta = t.deltaSum / units.Millis(t.paired)
	}
	return diffFrac, meanDelta
}

// Recovered reports whether the world matched the baseline again on some
// day after the scenario's last event ended.
func (r *ResilienceReport) Recovered() bool {
	last := r.Scenario.MaxDay()
	for d := last + 1; d < r.Days; d++ {
		if r.ShiftFrac[d] == 0 && r.BeaconDiffFrac[d] == 0 {
			return true
		}
	}
	return false
}

// deltaGrid is the fixed ms grid the latency-delta CDF is sampled on.
var deltaGrid = []units.Millis{-100, -50, -20, -10, -5, -2, -1, 0, 1, 2, 5, 10, 20, 50, 100, 200}

// Report converts the resilience comparison into the standard experiment
// report shape: a per-event impact table, a shift-by-day figure, the
// latency-delta CDF over fault-active days, and headline numbers.
func (r *ResilienceReport) Report() Report {
	rep := Report{ID: "resilience"}

	tbl := &stats.Table{
		Title:   "fault scenario impact: " + r.Scenario.Summary(),
		Columns: []string{"event", "window", "peak shift", "mean shift", "beacon diff", "mean Δ any", "recovery"},
	}
	for _, imp := range r.Events {
		recovery := "not in run"
		if imp.RecoveryDays >= 0 {
			recovery = fmt.Sprintf("+%dd", imp.RecoveryDays)
		}
		tbl.Rows = append(tbl.Rows, []string{
			imp.Event.Kind.String() + " " + imp.Event.Target,
			fmt.Sprintf("d%d+%d", imp.Event.Day, imp.Event.Days),
			pct(imp.PeakShiftFrac),
			pct(imp.MeanShiftFrac),
			pct(imp.BeaconDiffFrac),
			msStr(imp.MeanAnycastDeltaMs),
			recovery,
		})
	}
	rep.Table = tbl

	fig := &stats.Figure{
		Title:  "catchment shift and beacon divergence by day",
		XLabel: "day",
		YLabel: "fraction vs baseline",
	}
	shift := stats.Series{Name: "fe-shift"}
	bdiff := stats.Series{Name: "beacon-diff"}
	for d := 0; d < r.Days; d++ {
		shift.Points = append(shift.Points, stats.SeriesPoint{X: float64(d), Y: r.ShiftFrac[d]})
		bdiff.Points = append(bdiff.Points, stats.SeriesPoint{X: float64(d), Y: r.BeaconDiffFrac[d]})
	}
	fig.Series = []stats.Series{shift, bdiff}
	rep.Figure = fig

	rep.Lines = []Headline{
		{Name: "peak single-day catchment shift", Paper: "~20% ingress shift possible (§5)", Measured: pct(maxOf(r.ShiftFrac))},
		{Name: "peak single-day beacon divergence", Paper: "n/a (no faults in study window)", Measured: pct(maxOf(r.BeaconDiffFrac))},
		{Name: "recovered to baseline after last event", Paper: "expected (anycast reconverges)", Measured: fmt.Sprintf("%v", r.Recovered())},
	}
	return rep
}

// DeltaCDFFigure returns the latency-delta CDF over fault-active days,
// or nil when the scenario produced no active-day samples.
func (r *ResilienceReport) DeltaCDFFigure() *stats.Figure {
	ecdf, err := stats.NewECDF(r.ActiveDeltasMs)
	if err != nil {
		return nil
	}
	fig := &stats.Figure{
		Title:  "anycast latency delta vs baseline (fault-active days)",
		XLabel: "delta ms",
		YLabel: "CDF",
		Series: []stats.Series{ecdf.SampleCDF("P[Δ <= x]", deltaGrid)},
		Notes: []string{fmt.Sprintf("%d beacon pairs on fault-active days; median Δ %s",
			ecdf.N(), msStr(ecdf.Quantile(0.5)))},
	}
	return fig
}

// Render formats the resilience report for terminal output: the impact
// table, the per-day divergence figure, and the delta CDF.
func (r *ResilienceReport) Render() string {
	out := r.Report().Render()
	if fig := r.DeltaCDFFigure(); fig != nil {
		out += fig.Render()
	}
	return out
}

func maxOf(xs []float64) float64 {
	best := 0.0
	for _, x := range xs {
		if x > best {
			best = x
		}
	}
	return best
}
