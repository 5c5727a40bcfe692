package experiments

import (
	"fmt"

	"anycastcdn/internal/bgp"
	"anycastcdn/internal/faults"
	"anycastcdn/internal/latency"
	"anycastcdn/internal/load"
	"anycastcdn/internal/sim"
	"anycastcdn/internal/stats"
	"anycastcdn/internal/units"
)

// LoadArm is one overload policy's outcome under the shared surge
// scenario.
type LoadArm struct {
	Policy load.Policy
	// PeakUtil is the worst (front-end, day) utilization of the run.
	PeakUtil float64
	// PerDayPeak[d] is day d's worst front-end utilization.
	PerDayPeak []float64
	// OverloadSiteDays counts (front-end, day) pairs served above
	// capacity; OverloadMinutes is the same expressed as minutes of
	// overload (1440 per site-day).
	OverloadSiteDays int
	// WithdrawnSiteDays counts (front-end, day) pairs whose route the
	// naive strategy withdrew; PerDayWithdrawn[d] is day d's withdrawn
	// count — the cascade's shape (a rolling failure grows day over day).
	WithdrawnSiteDays int
	PerDayWithdrawn   []int
	// ShedQueries is the volume served away from the anycast front-end;
	// TotalQueries is the run's whole volume.
	ShedQueries  int64
	TotalQueries int64
	// RedirectedClientDays counts client-days whose queries were served
	// off their anycast front-end.
	RedirectedClientDays int
	// DeltaECDF is the latency-delta distribution of redirected
	// client-days (redirected path RTT minus anycast path RTT); nil when
	// nothing was redirected.
	DeltaECDF *stats.ECDF[units.Millis]
}

// OverloadMinutes expresses the arm's overload exposure in minutes.
func (a LoadArm) OverloadMinutes() int { return a.OverloadSiteDays * 24 * 60 }

// ShedFrac is the shed volume as a fraction of total.
func (a LoadArm) ShedFrac() float64 {
	if a.TotalQueries == 0 {
		return 0
	}
	return float64(a.ShedQueries) / float64(a.TotalQueries)
}

// LoadManagementReport compares the three overload policies seeds-aligned
// under one surge scenario: static anycast (the paper's measured
// baseline, blind to load), naive route withdrawal (§2's warning), and
// FastRoute-style layered spillover (the papers' distributed controller).
// All three arms share the seed, the world, the derived capacities and
// the scenario, so every difference is attributable to the policy.
type LoadManagementReport struct {
	Scenario  faults.Scenario
	Days      int
	Static    LoadArm
	Withdraw  LoadArm
	FastRoute LoadArm
}

// LoadManagement runs the three-policy comparison, streaming each arm's
// simulation and retaining only the aggregators' state, so it scales to
// paper-size runs. cfg.Scenario is overridden by sc and cfg.LoadManager
// by each arm's policy. The arms stream one world, which the policy does
// not shape, and run it beacon-free: no arm reads a beacon, and beacons
// feed nothing back into the day loop (DESIGN.md §14).
func LoadManagement(cfg sim.Config, sc faults.Scenario) (*LoadManagementReport, error) {
	cfg.Scenario, cfg.LoadManager = &sc, nil
	w, err := sim.BuildWorld(cfg)
	if err != nil {
		return nil, fmt.Errorf("experiments: load-management world: %w", err)
	}
	cfg.BeaconSampleRate = 0
	rep := &LoadManagementReport{Scenario: sc, Days: cfg.Days}
	for _, a := range []struct {
		policy load.Policy
		arm    *LoadArm
	}{{load.Static, &rep.Static}, {load.Withdraw, &rep.Withdraw}, {load.FastRoute, &rep.FastRoute}} {
		cfg.LoadManager = &load.ManagerConfig{Policy: a.policy}
		agg := newLoadMgmtAgg(w, cfg.Days)
		if err := sim.StreamWorld(cfg, w, agg.Observe); err != nil {
			return nil, fmt.Errorf("experiments: %s arm: %w", a.policy, err)
		}
		*a.arm = agg.arm(a.policy)
	}
	return rep, nil
}

// loadMgmtAgg accumulates one arm's metrics online, one streamed day at a
// time.
type loadMgmtAgg struct {
	w               *sim.World
	perDayPeak      []float64
	perDayWithdrawn []int

	overloadSiteDays  int
	withdrawnSiteDays int
	shed              int64
	total             int64
	redirected        int
	deltas            []units.Millis
}

func newLoadMgmtAgg(w *sim.World, days int) *loadMgmtAgg {
	return &loadMgmtAgg{
		w:               w,
		perDayPeak:      make([]float64, days),
		perDayWithdrawn: make([]int, days),
	}
}

// Observe consumes one streamed day (sim.StreamWorld callback shape). It
// copies nothing out of the DayResult.
func (a *loadMgmtAgg) Observe(d sim.DayResult) error {
	for i, r := range d.Passive {
		a.observeRecord(r, d.Assignments[i], d.Day)
	}
	a.observeUtil(d.Day, d.Utilization)
	return nil
}

func (a *loadMgmtAgg) observeRecord(r sim.DayRecord, asg bgp.Assignment, day int) {
	if r.Queries == 0 {
		// Zero-query client-days are unobservable in the passive log; the
		// redirection metrics follow the log's observability rule.
		return
	}
	a.total += int64(r.Queries)
	if r.FrontEnd == asg.FrontEnd {
		return
	}
	a.shed += int64(r.Queries)
	a.redirected++
	// Latency cost of the redirection: same ingress and public-Internet
	// leg, but the query is hauled over the backbone to the effective
	// front-end instead of the hot-potato one. DayRTTms is pure and
	// memoized, so sampling it here consumes no shared randomness.
	orig := latency.Path{
		PrefixID:   r.ClientID,
		EntryKey:   uint64(asg.Ingress),
		AirKm:      asg.AirKm,
		BackboneKm: asg.BackboneKm,
	}
	red := orig
	red.BackboneKm = a.w.Deployment.Backbone.IGPDistanceKm(asg.Ingress, r.FrontEnd)
	a.deltas = append(a.deltas, a.w.Latency.DayRTTms(red, day)-a.w.Latency.DayRTTms(orig, day))
}

func (a *loadMgmtAgg) observeUtil(day int, utils []sim.SiteUtil) {
	peak := 0.0
	withdrawn := 0
	for _, u := range utils {
		util := u.Utilization()
		if util > peak {
			peak = util
		}
		if util > 1 {
			a.overloadSiteDays++
		}
		if u.Withdrawn {
			withdrawn++
		}
	}
	a.perDayPeak[day] = peak
	a.perDayWithdrawn[day] = withdrawn
	a.withdrawnSiteDays += withdrawn
}

func (a *loadMgmtAgg) arm(p load.Policy) LoadArm {
	arm := LoadArm{
		Policy:               p,
		PerDayPeak:           a.perDayPeak,
		PerDayWithdrawn:      a.perDayWithdrawn,
		OverloadSiteDays:     a.overloadSiteDays,
		WithdrawnSiteDays:    a.withdrawnSiteDays,
		ShedQueries:          a.shed,
		TotalQueries:         a.total,
		RedirectedClientDays: a.redirected,
	}
	for _, u := range a.perDayPeak {
		if u > arm.PeakUtil {
			arm.PeakUtil = u
		}
	}
	if ecdf, err := stats.NewECDF(a.deltas); err == nil {
		arm.DeltaECDF = ecdf
	}
	return arm
}

// Arms returns the three arms in report order.
func (r *LoadManagementReport) Arms() []LoadArm {
	return []LoadArm{r.Static, r.Withdraw, r.FastRoute}
}

// Report converts the comparison into the standard experiment report
// shape: a per-arm table, the per-day peak-utilization figure, and
// headline numbers against the papers' claims.
func (r *LoadManagementReport) Report() Report {
	rep := Report{ID: "load-management"}

	tbl := &stats.Table{
		Title:   "overload policies under flash crowd: " + r.Scenario.Summary(),
		Columns: []string{"policy", "peak util", "overload site-days", "overload min", "withdrawn site-days", "shed volume", "redirected", "median Δ", "p95 Δ"},
	}
	for _, arm := range r.Arms() {
		med, p95 := "n/a", "n/a"
		if arm.DeltaECDF != nil {
			med = msStr(arm.DeltaECDF.Quantile(0.5))
			p95 = msStr(arm.DeltaECDF.Quantile(0.95))
		}
		tbl.Rows = append(tbl.Rows, []string{
			arm.Policy.String(),
			fmt.Sprintf("%.2f", arm.PeakUtil),
			fmt.Sprintf("%d", arm.OverloadSiteDays),
			fmt.Sprintf("%d", arm.OverloadMinutes()),
			fmt.Sprintf("%d", arm.WithdrawnSiteDays),
			pct(arm.ShedFrac()),
			fmt.Sprintf("%d", arm.RedirectedClientDays),
			med,
			p95,
		})
	}
	rep.Table = tbl

	fig := &stats.Figure{
		Title:  "peak front-end utilization by day (1.0 = at capacity)",
		XLabel: "day",
		YLabel: "peak utilization",
	}
	for _, arm := range r.Arms() {
		s := stats.Series{Name: arm.Policy.String()}
		for d, u := range arm.PerDayPeak {
			s.Points = append(s.Points, stats.SeriesPoint{X: float64(d), Y: u})
		}
		fig.Series = append(fig.Series, s)
	}
	rep.Figure = fig

	rep.Lines = []Headline{
		{
			Name:     "static anycast is blind to load",
			Paper:    "anycast 'is not aware of the load on servers' (§2)",
			Measured: fmt.Sprintf("peak util %.2f, %d overload site-days", r.Static.PeakUtil, r.Static.OverloadSiteDays),
		},
		{
			Name:  "naive withdrawal cascades",
			Paper: "withdrawal 'can lead to cascading overloading' (§2)",
			Measured: fmt.Sprintf("%d site-days withdrawn (rolling up to %d sites/day), peak util %.2f",
				r.Withdraw.WithdrawnSiteDays, maxInt(r.Withdraw.PerDayWithdrawn), r.Withdraw.PeakUtil),
		},
		{
			Name:     "FastRoute spillover holds the fleet",
			Paper:    "excess sheds to deeper rings with no central coordinator ([23])",
			Measured: fmt.Sprintf("peak util %.2f (target <= 1.0), shed %s of volume", r.FastRoute.PeakUtil, pct(r.FastRoute.ShedFrac())),
		},
	}
	return rep
}

func maxInt(xs []int) int {
	m := 0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// DeltaCDFFigure returns the FastRoute arm's redirection latency-delta
// CDF, or nil when nothing was redirected.
func (r *LoadManagementReport) DeltaCDFFigure() *stats.Figure {
	if r.FastRoute.DeltaECDF == nil {
		return nil
	}
	e := r.FastRoute.DeltaECDF
	return &stats.Figure{
		Title:  "latency delta of FastRoute-redirected client-days",
		XLabel: "delta ms",
		YLabel: "CDF",
		Series: []stats.Series{e.SampleCDF("P[Δ <= x]", deltaGrid)},
		Notes: []string{fmt.Sprintf("%d redirected client-days; median Δ %s",
			e.N(), msStr(e.Quantile(0.5)))},
	}
}

// Render formats the comparison for terminal output.
func (r *LoadManagementReport) Render() string {
	out := r.Report().Render()
	if fig := r.DeltaCDFFigure(); fig != nil {
		out += fig.Render()
	}
	return out
}
