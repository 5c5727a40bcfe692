package experiments

import (
	"fmt"
	"slices"
	"sync"

	"anycastcdn/internal/beacon"
	"anycastcdn/internal/core"
	"anycastcdn/internal/geo"
	"anycastcdn/internal/stats"
	"anycastcdn/internal/units"
)

// This file is the StreamSuite's beacon fold. Each day's measurements
// expand to observations that a core.Grouper groups once per (client,
// target); the latency reports fold the grouped day into per-day counts,
// per-client scalars and per-client-day values, and the predictors carry
// only the previous day's predictions. No beacon or observation outlives
// its day. stats.QuantileSorted fails only on an empty sample or a q
// outside [0, 1]; every call here reads a grouped target, which holds at
// least one sample, at a constant q, so its error is dropped.

const (
	fig3Days            = 4  // Figure 3's window: "a period of a few days"
	minSamplesPerTarget = 5  // Figures 5 and 6: per-day floor for a median
	stabMinPerDay       = 10 // MetricStability: per-day floor for a pair
	// HybridDeployment: the hybrid redirects only predicted gains above it.
	hybridMarginMs units.Millis = 10
)

var (
	fig5Thresholds  = [...]units.Millis{0, 10, 25, 50, 100}
	stabPercentiles = [...]float64{0.10, 0.25, 0.50, 0.75, 0.90, 0.95}
)

// beaconState is what the latency reports read.
type beaconState struct {
	// Figure 3: every request's anycast penalty over the first fig3Days
	// days, world-wide and for the two regional lines.
	world, europe, us []units.Millis
	// fig5 holds Figure 5's counts for each day with a comparison.
	fig5 []fig5Day
	// clients[i] is client lo+i's state; nil until the suite sees a
	// beacon, so a beacon-free run allocates none.
	clients []clientBeacons

	pred predictionFold
}

// fig5Day is one day's Figure 5 counts: the clients with a comparison,
// and per threshold those a front-end beats anycast for by more.
type fig5Day struct {
	day, n int
	over   [len(fig5Thresholds)]int
}

// clientBeacons is one client's state across the month.
type clientBeacons struct {
	// Figure 6: the client's poor days, the last of them, and its current
	// and longest runs of consecutive poor days.
	poorDays, lastPoor, run, longest int32
	// pairs holds MetricStability's series, one per target measured
	// stabMinPerDay times on some day.
	pairs []stabPair
}

// stabPair is one (client, target) pair's series: one row of every
// stabPercentiles percentile per qualifying day, in day order.
type stabPair struct {
	target core.Target
	rows   [][len(stabPercentiles)]units.Millis
}

// weighted is one weighted-ECDF line as (value, weight) pairs, kept in
// the order NewWeightedECDF must see them: its weight sums run in input
// order among equal values.
type weighted struct {
	xs []units.Millis
	ws []float64
}

func (l *weighted) add(x units.Millis, w float64) {
	l.xs = append(l.xs, x)
	l.ws = append(l.ws, w)
}

// expandObservations writes measurements [lo, hi) of ms into obs, which
// holds four observations per measurement: measurement i's go to
// obs[4i:4i+4], appended in place to an empty slice of capacity four.
func expandObservations(obs []core.Observation, ms []beacon.Measurement, lo, hi int) {
	for i := lo; i < hi; i++ {
		core.AppendObservations(obs[4*i:4*i:4*i+4], ms[i])
	}
}

// volume is a client's query volume, Figure 9's and the hybrid's weight.
func (s *StreamSuite) volume(client uint64) float64 { return s.World.Population.Client(client).Volume }

// observeBeacons folds one day's beacons into the suite.
func (s *StreamSuite) observeBeacons(day int, ms []beacon.Measurement) {
	b := &s.beacons
	if day < fig3Days {
		for _, m := range ms {
			p := m.AnycastPenaltyMs()
			b.world = append(b.world, p)
			if m.Region == geo.RegionEurope {
				b.europe = append(b.europe, p)
			}
			if s.World.Population.Client(m.ClientID).Country == "US" {
				b.us = append(b.us, p)
			}
		}
	}
	// Built only on a day with beacons: the fold's goroutine captures it,
	// which moves it to the heap.
	var perClient func([]core.ClientSamples)
	if len(ms) > 0 {
		perClient = func(grouped []core.ClientSamples) { s.foldClients(day, grouped) }
	}
	b.pred.observe(ms, s.volume, perClient)
}

// foldClients folds the day's per-client grouping into Figures 5 and 6
// and MetricStability.
func (s *StreamSuite) foldClients(day int, grouped []core.ClientSamples) {
	b := &s.beacons
	if b.clients == nil {
		b.clients = make([]clientBeacons, s.hi-s.lo)
	}
	f := fig5Day{day: day}
	for i := range grouped {
		c := &grouped[i]
		cb := &b.clients[c.ClientID-uint64(s.lo)]
		cb.observeStability(c)
		imp, ok := improvement(c)
		if !ok {
			continue
		}
		f.n++
		for k, th := range fig5Thresholds {
			if imp > th {
				f.over[k]++
			}
		}
		if imp > 0 {
			cb.poor(int32(day))
		}
	}
	if f.n > 0 {
		b.fig5 = append(b.fig5, f)
	}
}

// improvement is the client's comparison for the day (§5): its median
// anycast latency minus the best median over the front-ends it measured,
// each from at least minSamplesPerTarget samples. Every beacon measures
// anycast, so a grouped client's first target is anycast.
func improvement(c *core.ClientSamples) (units.Millis, bool) {
	if len(c.Targets[0].RTTs) < minSamplesPerTarget {
		return 0, false
	}
	anyMed, _ := stats.QuantileSorted(c.Targets[0].RTTs, 0.5)
	bestMed := units.Millis(-1)
	for _, u := range c.Targets[1:] {
		if len(u.RTTs) < minSamplesPerTarget {
			continue
		}
		if med, _ := stats.QuantileSorted(u.RTTs, 0.5); bestMed < 0 || med < bestMed {
			bestMed = med
		}
	}
	return anyMed - bestMed, bestMed >= 0
}

// poor records a poor day; days arrive in ascending order.
func (cb *clientBeacons) poor(day int32) {
	if cb.poorDays > 0 && cb.lastPoor == day-1 {
		cb.run++
	} else {
		cb.run = 1
	}
	cb.longest = max(cb.longest, cb.run)
	cb.lastPoor = day
	cb.poorDays++
}

// observeStability appends the day's percentiles of every target the
// client measured at least stabMinPerDay times.
func (cb *clientBeacons) observeStability(c *core.ClientSamples) {
	for _, ts := range c.Targets {
		if len(ts.RTTs) < stabMinPerDay {
			continue
		}
		k := 0
		for k < len(cb.pairs) && cb.pairs[k].target != ts.Target {
			k++
		}
		if k == len(cb.pairs) {
			cb.pairs = append(cb.pairs, stabPair{target: ts.Target})
		}
		var row [len(stabPercentiles)]units.Millis
		for i, q := range stabPercentiles {
			row[i], _ = stats.QuantileSorted(ts.RTTs, q)
		}
		cb.pairs[k].rows = append(cb.pairs[k].rows, row)
	}
}

// fig9Lines are Figure 9's lines: the §6 scheme under each grouping,
// evaluated at the median and the 75th percentile.
var fig9Lines = [...]struct {
	name     string
	grouping core.Grouping
	pctile   float64
}{
	{"EDNS-0 Median", core.ByPrefix, 0.50},
	{"EDNS-0 75th", core.ByPrefix, 0.75},
	{"LDNS Median", core.ByLDNS, 0.50},
	{"LDNS 75th", core.ByLDNS, 0.75},
}

var hybridPolicies = [...]string{
	"anycast only",
	"geo-DNS (closest to LDNS)",
	"DNS prediction (plain §6)",
	fmt.Sprintf("hybrid (%.0f ms margin)", hybridMarginMs.Float()),
}

// predictionFold is the §6 state of Figure 9 and HybridDeployment: the
// previous day's predictions, Figure 9's lines and the hybrid's rows in
// (day, client) order, and each row's total and redirected weight. The
// hybrid's plain policy steers by the ByPrefix predictions: it and
// Figure 9 both use the paper's configuration. obs holds the day's
// observations and byClient and byLDNS its two groupings, in storage
// reused every day; evals holds the scoring's evaluations, reused by
// every line of every day on observe's calling goroutine.
type predictionFold struct {
	pred, margin     *core.Predictor      // margin is nil in a Figure 9 fold
	prev             [2]*core.Predictions // indexed by core.Grouping
	marginPrev       *core.Predictions
	lines            [len(fig9Lines)]weighted
	rows             [len(hybridPolicies)]weighted
	redirW, totW     [len(hybridPolicies)]float64
	obs              []core.Observation
	byClient, byLDNS core.Grouper
	evals            []core.Evaluation
}

// noPredictions are what a day without beacons leaves the next day to
// steer by: no group has a prediction, so every client keeps anycast.
var noPredictions = [...]core.Predictions{core.ByPrefix: {Grouping: core.ByPrefix}, core.ByLDNS: {Grouping: core.ByLDNS}}

// newPredictionFold folds Figure 9 under cfg and, with hybrid, the
// hybrid deployment too.
func newPredictionFold(cfg core.Config, hybrid bool) predictionFold {
	f := predictionFold{pred: core.NewPredictor(cfg)}
	if hybrid {
		cfg.HybridMarginMs = hybridMarginMs
		f.margin = core.NewPredictor(cfg)
	}
	return f
}

// observe folds one day's measurements in two halves of about equal
// weight, one on the calling goroutine and one on a goroutine of its own
// that is joined before observe returns:
//
//   - Each expands half the measurements into the day's observations,
//     measurement i into obs[4i:4i+4], and waits for the other's half.
//   - The calling goroutine groups the observations per client and
//     publishes the grouping, then scores the previous day's predictions
//     on it, serves the hybrid's policies and trains the ByPrefix and
//     hybrid-margin predictors from it.
//   - The other trains ByLDNS from the day's resolver grouping, then
//     hands the published per-client grouping to perClient (nil in a
//     Figure 9 fold).
//
// The split changes no output. After the expansion both halves only
// read the observations, the per-client grouping and volume, and each
// writes state of its own: its Grouper, and perClient's state or the
// scoring's, the hybrid's and the ByPrefix and hybrid-margin
// predictions. The scoring reads the previous day's ByLDNS predictions,
// so the new ones are installed only after the join. A day without
// measurements starts nothing and leaves no predictions.
func (f *predictionFold) observe(ms []beacon.Measurement, volume func(uint64) float64, perClient func([]core.ClientSamples)) {
	if len(ms) == 0 {
		f.prev = [2]*core.Predictions{&noPredictions[core.ByPrefix], &noPredictions[core.ByLDNS]}
		f.marginPrev = f.prev[core.ByPrefix]
		return
	}
	f.obs = slices.Grow(f.obs[:0], 4*len(ms))[:4*len(ms)]
	half := len(ms) / 2
	var expanded, done sync.WaitGroup
	expanded.Add(2)
	done.Add(1)
	grouped := make(chan []core.ClientSamples, 1)
	var ldns *core.Predictions
	go func() {
		defer done.Done()
		expandObservations(f.obs, ms, half, len(ms))
		expanded.Done()
		expanded.Wait()
		ldns = f.pred.TrainWith(&f.byLDNS, f.obs, core.ByLDNS)
		if perClient != nil {
			perClient(<-grouped)
		}
	}()
	expandObservations(f.obs, ms, 0, half)
	expanded.Done()
	expanded.Wait()
	day := f.byClient.Group(f.obs, core.ByPrefix)
	grouped <- day
	if f.prev[core.ByPrefix] != nil {
		for i, l := range fig9Lines {
			ev := core.Evaluator{Percentile: l.pctile, MinSamples: 2}
			f.evals = ev.EvaluateSamples(f.evals[:0], f.prev[l.grouping], day, volume)
			for _, e := range f.evals {
				f.lines[i].add(e.ImprovementMs, e.Weight)
			}
		}
		if f.margin != nil {
			f.serve(day, volume)
		}
	}
	f.prev[core.ByPrefix] = f.pred.TrainSamples(day)
	if f.margin != nil {
		f.marginPrev = f.margin.TrainSamples(day)
	}
	done.Wait()
	f.prev[core.ByLDNS] = ldns
}

// serve serves the grouped day under each hybrid policy. A client's
// latency is the median of its samples to the policy's target; a target
// it did not measure today still serves it, but its latency can only be
// read from its anycast samples.
func (f *predictionFold) serve(day []core.ClientSamples, volume func(uint64) float64) {
	for i := range day {
		c := &day[i]
		w := volume(c.ClientID)
		if w <= 0 {
			w = 1
		}
		targets := [len(hybridPolicies)]core.Target{
			core.AnycastTarget, c.Closest, f.prev[core.ByPrefix].For(c.ClientID, c.LDNS), f.marginPrev.For(c.ClientID, c.LDNS),
		}
		for p, target := range targets {
			rtts, redirected := c.Targets[0].RTTs, false
			for _, ts := range c.Targets[1:] {
				if ts.Target == target {
					rtts, redirected = ts.RTTs, true
				}
			}
			med, _ := stats.QuantileSorted(rtts, 0.5)
			f.rows[p].add(med, w)
			f.totW[p] += w
			if redirected {
				f.redirW[p] += w
			}
		}
	}
}

// MetricStability reproduces the result §6 of the paper describes but
// omits "due to lack of space": the claim that low percentiles of a
// (client group, front-end) latency distribution are stable across days —
// and therefore usable as prediction metrics — while high percentiles are
// too noisy. For each candidate percentile it reports two quantities over
// all (client, target) pairs with enough measurements on at least three
// days:
//
//   - the median coefficient of variation of the percentile across days
//     (the paper's stability measure), and
//   - the median absolute day-over-day change in the percentile, in ms
//     (a direct measure of prediction difficulty).
func (s *StreamSuite) MetricStability() Report {
	tb := &stats.Table{
		Title:   "§6 (omitted result): stability of candidate prediction metrics",
		Columns: []string{"percentile", "median CoV across days", "median |day-over-day change| (ms)", "pairs"},
	}
	var covByPct []float64
	var series []units.Millis // one pair's column i, reused for every pair
	for i, p := range stabPercentiles {
		var covs []float64
		var deltas []units.Millis
		for _, cb := range s.beacons.clients {
			for _, pr := range cb.pairs {
				if len(pr.rows) < 3 {
					continue
				}
				series = series[:0]
				for _, row := range pr.rows {
					series = append(series, row[i])
				}
				if cov, err := stats.CoefficientOfVariation(series); err == nil {
					covs = append(covs, cov)
				}
				for d := 1; d < len(series); d++ {
					diff := series[d] - series[d-1]
					if diff < 0 {
						diff = -diff
					}
					deltas = append(deltas, diff)
				}
			}
		}
		if len(covs) == 0 {
			continue
		}
		medCov, _ := stats.Median(covs)
		medDelta, _ := stats.Median(deltas)
		covByPct = append(covByPct, medCov)
		tb.Rows = append(tb.Rows, []string{
			fmt.Sprintf("p%02.0f", p*100),
			fmt.Sprintf("%.4f", medCov),
			fmt.Sprintf("%.1f", medDelta),
			fmt.Sprintf("%d", len(covs)),
		})
	}
	lines := []Headline{}
	if len(covByPct) >= 2 {
		lines = append(lines, Headline{
			Name:     "low percentiles stabler than high percentiles",
			Paper:    "25th/median have lower CoV; high percentiles 'very noisy'",
			Measured: fmt.Sprintf("CoV p25=%.4f vs p95=%.4f", covByPct[1], covByPct[len(covByPct)-1]),
		})
	}
	return Report{ID: "metric-stability", Table: tb, Lines: lines}
}

// HybridDeployment runs the deployment the paper proposes at the end of
// §6 over the whole simulated month: each day the predictor retrains on
// the previous day's beacons and steers the following day's traffic
// (anycast for most clients, DNS redirection for the predicted few). It
// reports the query-weighted median and 75th-percentile latency of four
// policies — anycast-only, traditional geo-DNS, full DNS prediction, and
// the hybrid with a hybridMarginMs safety margin — the comparison a CDN
// operator would actually use to decide.
func (s *StreamSuite) HybridDeployment() Report {
	h := &s.beacons.pred
	tb := &stats.Table{
		Title:   "§6 extension: month-long deployment comparison (query-weighted)",
		Columns: []string{"policy", "median ms", "p75 ms", "p95 ms", "redirected share"},
	}
	for p, name := range hybridPolicies {
		e, err := stats.NewWeightedECDF(h.rows[p].xs, h.rows[p].ws)
		if err != nil {
			continue
		}
		tb.Rows = append(tb.Rows, []string{
			name,
			fmt.Sprintf("%.1f", e.Quantile(0.5)),
			fmt.Sprintf("%.1f", e.Quantile(0.75)),
			fmt.Sprintf("%.1f", e.Quantile(0.95)),
			pct(h.redirW[p] / h.totW[p]),
		})
	}
	lines := []Headline{}
	// The headlines quote the table's cells. The hybrid acts on the few
	// clients it redirects, so it shows in the tail and in how much
	// volume it moves, not in the median.
	if rows := tb.Rows; len(rows) == len(hybridPolicies) {
		anycast, geoDNS, plain, hybrid := rows[0], rows[1], rows[2], rows[3]
		lines = append(lines,
			Headline{
				Name:     "hybrid vs plain prediction: p95, redirected share",
				Paper:    "hybrid 'may outperform' plain DNS redirection (§6, proposed)",
				Measured: fmt.Sprintf("p95 %s vs %s ms, with %s vs %s of volume redirected", hybrid[3], plain[3], hybrid[4], plain[4]),
			},
			Headline{
				Name:     "anycast vs traditional geo-DNS",
				Paper:    "anycast delivers optimal performance for most clients (§8)",
				Measured: fmt.Sprintf("anycast %s ms vs geo-DNS %s ms median", anycast[1], geoDNS[1]),
			})
	}
	return Report{ID: "hybrid-deployment", Table: tb, Lines: lines}
}
