package core

import (
	"math"
	"slices"
	"sort"
	"testing"

	"anycastcdn/internal/beacon"
	"anycastcdn/internal/dns"
	"anycastcdn/internal/stats"
	"anycastcdn/internal/topology"
	"anycastcdn/internal/units"
)

// mkObs builds n observations for one (client, ldns, target) with the
// given latencies cycling.
func mkObs(client uint64, ldns dns.LDNSID, t Target, rtts ...float64) []Observation {
	out := make([]Observation, len(rtts))
	for i, r := range rtts {
		out[i] = Observation{ClientID: client, LDNS: ldns, Target: t, RTTms: units.Millis(r)}
	}
	return out
}

func repeat(v float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = v
	}
	return out
}

func TestTrainPicksFastestTarget(t *testing.T) {
	p := NewPredictor(Config{Metric: MetricP25, MinMeasurements: 3})
	fe1 := Target{Site: 1}
	fe2 := Target{Site: 2}
	var obs []Observation
	obs = append(obs, mkObs(10, 5, AnycastTarget, repeat(50, 5)...)...)
	obs = append(obs, mkObs(10, 5, fe1, repeat(30, 5)...)...)
	obs = append(obs, mkObs(10, 5, fe2, repeat(40, 5)...)...)
	pred := p.Train(obs, ByPrefix)
	if got := pred.For(10, 5); got != fe1 {
		t.Fatalf("predicted %v, want front-end(1)", got)
	}
	if len(pred.byGroup) != 1 {
		t.Fatalf("predictions for %d groups, want 1", len(pred.byGroup))
	}
}

func TestTrainPrefersAnycastWhenBest(t *testing.T) {
	p := NewPredictor(Config{Metric: MetricP25, MinMeasurements: 3})
	fe1 := Target{Site: 1}
	var obs []Observation
	obs = append(obs, mkObs(10, 5, AnycastTarget, repeat(20, 5)...)...)
	obs = append(obs, mkObs(10, 5, fe1, repeat(30, 5)...)...)
	pred := p.Train(obs, ByPrefix)
	if got := pred.For(10, 5); !got.Anycast {
		t.Fatalf("predicted %v, want anycast", got)
	}
}

func TestTrainTiePrefersAnycast(t *testing.T) {
	p := NewPredictor(Config{Metric: MetricMedian, MinMeasurements: 3})
	fe1 := Target{Site: 1}
	var obs []Observation
	obs = append(obs, mkObs(10, 5, AnycastTarget, repeat(25, 5)...)...)
	obs = append(obs, mkObs(10, 5, fe1, repeat(25, 5)...)...)
	pred := p.Train(obs, ByPrefix)
	if got := pred.For(10, 5); !got.Anycast {
		t.Fatalf("tie should keep anycast, got %v", got)
	}
}

func TestTrainMinMeasurementFloor(t *testing.T) {
	p := NewPredictor(Config{Metric: MetricP25, MinMeasurements: 20})
	fe1 := Target{Site: 1}
	var obs []Observation
	obs = append(obs, mkObs(10, 5, AnycastTarget, repeat(50, 25)...)...)
	obs = append(obs, mkObs(10, 5, fe1, repeat(10, 19)...)...) // below floor
	pred := p.Train(obs, ByPrefix)
	if got := pred.For(10, 5); !got.Anycast {
		t.Fatalf("under-measured target must not be chosen, got %v", got)
	}
	// With one more measurement it qualifies.
	obs = append(obs, mkObs(10, 5, fe1, 10)...)
	pred = p.Train(obs, ByPrefix)
	if got := pred.For(10, 5); got != fe1 {
		t.Fatalf("qualifying target should be chosen, got %v", got)
	}
}

func TestTrainNoQualifyingTargets(t *testing.T) {
	p := NewPredictor(Config{Metric: MetricP25, MinMeasurements: 20})
	obs := mkObs(10, 5, Target{Site: 1}, repeat(10, 3)...)
	pred := p.Train(obs, ByPrefix)
	if len(pred.byGroup) != 0 {
		t.Fatalf("no group should qualify, got %d", len(pred.byGroup))
	}
	if got := pred.For(10, 5); !got.Anycast {
		t.Fatal("unknown groups must fall back to anycast")
	}
}

func TestTrainLDNSGroupingMixesClients(t *testing.T) {
	p := NewPredictor(Config{Metric: MetricMedian, MinMeasurements: 4})
	fe1 := Target{Site: 1}
	var obs []Observation
	// Two clients share LDNS 7. Client A is fast to fe1, client B slow.
	obs = append(obs, mkObs(1, 7, fe1, repeat(10, 4)...)...)
	obs = append(obs, mkObs(2, 7, fe1, repeat(90, 4)...)...)
	obs = append(obs, mkObs(1, 7, AnycastTarget, repeat(40, 4)...)...)
	obs = append(obs, mkObs(2, 7, AnycastTarget, repeat(40, 4)...)...)
	predLDNS := p.Train(obs, ByLDNS)
	predECS := p.Train(obs, ByPrefix)
	// Under LDNS grouping both clients get the same target.
	if predLDNS.For(1, 7) != predLDNS.For(2, 7) {
		t.Fatal("LDNS grouping must give one answer per resolver")
	}
	// Under ECS grouping the clients can differ.
	if predECS.For(1, 7) != fe1 {
		t.Fatalf("client 1 should get fe1 under ECS, got %v", predECS.For(1, 7))
	}
	if predECS.For(2, 7) == fe1 {
		t.Fatal("client 2 should not get fe1 under ECS")
	}
}

func TestHybridMargin(t *testing.T) {
	fe1 := Target{Site: 1}
	var obs []Observation
	obs = append(obs, mkObs(10, 5, AnycastTarget, repeat(50, 5)...)...)
	obs = append(obs, mkObs(10, 5, fe1, repeat(45, 5)...)...) // gain = 5ms
	plain := NewPredictor(Config{Metric: MetricP25, MinMeasurements: 3})
	if got := plain.Train(obs, ByPrefix).For(10, 5); got != fe1 {
		t.Fatalf("plain scheme should redirect, got %v", got)
	}
	hybrid := NewPredictor(Config{Metric: MetricP25, MinMeasurements: 3, HybridMarginMs: 10})
	if got := hybrid.Train(obs, ByPrefix).For(10, 5); !got.Anycast {
		t.Fatalf("hybrid with 10ms margin should keep anycast for a 5ms gain, got %v", got)
	}
	hybrid2 := NewPredictor(Config{Metric: MetricP25, MinMeasurements: 3, HybridMarginMs: 3})
	if got := hybrid2.Train(obs, ByPrefix).For(10, 5); got != fe1 {
		t.Fatalf("hybrid with 3ms margin should redirect for a 5ms gain, got %v", got)
	}
}

func TestRedirectedFraction(t *testing.T) {
	p := NewPredictor(Config{Metric: MetricP25, MinMeasurements: 2})
	fe1 := Target{Site: 1}
	var obs []Observation
	obs = append(obs, mkObs(1, 0, AnycastTarget, repeat(50, 3)...)...)
	obs = append(obs, mkObs(1, 0, fe1, repeat(10, 3)...)...)
	obs = append(obs, mkObs(2, 0, AnycastTarget, repeat(10, 3)...)...)
	obs = append(obs, mkObs(2, 0, fe1, repeat(50, 3)...)...)
	pred := p.Train(obs, ByPrefix)
	if got := pred.RedirectedFraction(); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("redirected fraction = %v, want 0.5", got)
	}
	empty := p.Train(nil, ByPrefix)
	if empty.RedirectedFraction() != 0 {
		t.Fatal("empty predictions should have zero redirected fraction")
	}
}

func TestNewPredictorClampsConfig(t *testing.T) {
	p := NewPredictor(Config{Metric: -1, MinMeasurements: 0, HybridMarginMs: -5})
	cfg := p.cfg
	if cfg.Metric != MetricP25 || cfg.MinMeasurements != 20 || cfg.HybridMarginMs != 0 {
		t.Fatalf("config not clamped: %+v", cfg)
	}
}

func TestFromMeasurement(t *testing.T) {
	m := beacon.Measurement{
		QueryID:  1,
		ClientID: 42,
		LDNS:     7,
		Anycast:  beacon.TargetSample{Site: 3, RTTms: 33},
		Unicast: [3]beacon.TargetSample{
			{Site: 1, RTTms: 11}, {Site: 2, RTTms: 22}, {Site: 4, RTTms: 44},
		},
	}
	obs := FromMeasurement(m)
	if len(obs) != 4 {
		t.Fatalf("got %d observations, want 4", len(obs))
	}
	if !obs[0].Target.Anycast || obs[0].RTTms != 33 {
		t.Fatalf("first observation should be anycast: %+v", obs[0])
	}
	for i, o := range obs {
		if o.ClientID != 42 || o.LDNS != 7 {
			t.Fatalf("observation %d lost identity: %+v", i, o)
		}
	}
	if obs[1].Target != (Target{Site: topology.SiteID(1)}) || obs[1].RTTms != 11 {
		t.Fatalf("unicast observation wrong: %+v", obs[1])
	}
}

// TestAppendObservationsZeroAlloc pins the fold's expansion at zero
// allocations once the destination has room, and at FromMeasurement's
// observations.
func TestAppendObservationsZeroAlloc(t *testing.T) {
	m := beacon.Measurement{
		ClientID: 42,
		LDNS:     7,
		Anycast:  beacon.TargetSample{Site: 3, RTTms: 33},
		Unicast:  [3]beacon.TargetSample{{Site: 1, RTTms: 11}, {Site: 2, RTTms: 22}, {Site: 4, RTTms: 44}},
	}
	dst := make([]Observation, 0, 8)
	allocs := testing.AllocsPerRun(100, func() { dst = AppendObservations(dst[:0], m) })
	if allocs != 0 {
		t.Fatalf("AppendObservations allocates %.1f times per run, want 0", allocs)
	}
	if !slices.Equal(dst, FromMeasurement(m)) {
		t.Fatalf("AppendObservations gave %+v, FromMeasurement %+v", dst, FromMeasurement(m))
	}
}

func TestTargetString(t *testing.T) {
	if AnycastTarget.String() != "anycast" {
		t.Fatal("anycast target name")
	}
	if (Target{Site: 3}).String() != "front-end(3)" {
		t.Fatalf("front-end target name: %s", Target{Site: 3})
	}
	if ByPrefix.String() != "ecs-prefix" || ByLDNS.String() != "ldns" {
		t.Fatal("grouping names")
	}
}

func TestEvaluateImprovement(t *testing.T) {
	p := NewPredictor(Config{Metric: MetricP25, MinMeasurements: 3})
	fe1 := Target{Site: 1}
	var train []Observation
	train = append(train, mkObs(10, 5, AnycastTarget, repeat(50, 5)...)...)
	train = append(train, mkObs(10, 5, fe1, repeat(30, 5)...)...)
	pred := p.Train(train, ByPrefix)

	var next []Observation
	next = append(next, mkObs(10, 5, AnycastTarget, repeat(52, 4)...)...)
	next = append(next, mkObs(10, 5, fe1, repeat(31, 4)...)...)
	ev := Evaluator{Percentile: 0.5, MinSamples: 2}
	evals := ev.Evaluate(pred, next, map[uint64]float64{10: 3})
	if len(evals) != 1 {
		t.Fatalf("got %d evaluations, want 1", len(evals))
	}
	e := evals[0]
	if e.ClientID != 10 || e.Weight != 3 || e.Predicted != fe1 {
		t.Fatalf("bad evaluation %+v", e)
	}
	if math.Abs(e.ImprovementMs.Float()-21) > 1e-9 {
		t.Fatalf("improvement %v, want 21", e.ImprovementMs)
	}
}

func TestEvaluatePenalty(t *testing.T) {
	p := NewPredictor(Config{Metric: MetricP25, MinMeasurements: 3})
	fe1 := Target{Site: 1}
	var train []Observation
	train = append(train, mkObs(10, 5, AnycastTarget, repeat(50, 5)...)...)
	train = append(train, mkObs(10, 5, fe1, repeat(30, 5)...)...)
	pred := p.Train(train, ByPrefix)
	// Next day the predicted front-end got worse: negative improvement.
	var next []Observation
	next = append(next, mkObs(10, 5, AnycastTarget, repeat(40, 4)...)...)
	next = append(next, mkObs(10, 5, fe1, repeat(70, 4)...)...)
	evals := Evaluator{Percentile: 0.5, MinSamples: 2}.Evaluate(pred, next, nil)
	if len(evals) != 1 || evals[0].ImprovementMs >= 0 {
		t.Fatalf("expected a penalty, got %+v", evals)
	}
}

func TestEvaluateAnycastPredictionIsZero(t *testing.T) {
	p := NewPredictor(Config{Metric: MetricP25, MinMeasurements: 3})
	var train []Observation
	train = append(train, mkObs(10, 5, AnycastTarget, repeat(20, 5)...)...)
	train = append(train, mkObs(10, 5, Target{Site: 1}, repeat(30, 5)...)...)
	pred := p.Train(train, ByPrefix)
	next := mkObs(10, 5, AnycastTarget, repeat(25, 4)...)
	evals := Evaluator{Percentile: 0.5}.Evaluate(pred, next, nil)
	if len(evals) != 1 || evals[0].ImprovementMs != 0 || !evals[0].Predicted.Anycast {
		t.Fatalf("anycast prediction should evaluate to zero: %+v", evals)
	}
}

func TestEvaluateSkipsUnmeasurable(t *testing.T) {
	p := NewPredictor(Config{Metric: MetricP25, MinMeasurements: 3})
	fe1 := Target{Site: 1}
	var train []Observation
	train = append(train, mkObs(10, 5, AnycastTarget, repeat(50, 5)...)...)
	train = append(train, mkObs(10, 5, fe1, repeat(30, 5)...)...)
	pred := p.Train(train, ByPrefix)
	// Next day has no samples to the predicted front-end.
	next := mkObs(10, 5, AnycastTarget, repeat(40, 4)...)
	evals := Evaluator{Percentile: 0.5, MinSamples: 2}.Evaluate(pred, next, nil)
	if len(evals) != 0 {
		t.Fatalf("unmeasurable client should be skipped, got %+v", evals)
	}
}

func TestEvaluateDefaultsClamped(t *testing.T) {
	pred := NewPredictor(DefaultConfig()).Train(nil, ByPrefix)
	next := mkObs(10, 5, AnycastTarget, repeat(40, 4)...)
	evals := Evaluator{Percentile: 7, MinSamples: -1}.Evaluate(pred, next, nil)
	if len(evals) != 1 {
		t.Fatalf("clamped evaluator should still evaluate, got %+v", evals)
	}
}

// trainReference is the pre-optimization Train written the obvious O(G×K)
// way: for every group, rescan the whole samples map for its qualifying
// targets and score each with a copying, sorting stats.Quantile. The
// production Train groups once and scores buckets it sorted in place; the
// two must agree exactly on every prediction (same target sort, same
// tie-breaks), which TestTrainMatchesReference pins.
func trainReference(p *Predictor, obs []Observation, g Grouping) *Predictions {
	type sampleKey struct {
		group  uint64
		target Target
	}
	cfg := p.cfg
	samples := map[sampleKey][]units.Millis{}
	groups := map[uint64]bool{}
	for _, o := range obs {
		k := sampleKey{groupKey(o, g), o.Target}
		samples[k] = append(samples[k], o.RTTms)
		groups[k.group] = true
	}
	pr := &Predictions{Grouping: g, byGroup: map[uint64]Target{}}
	ids := make([]uint64, 0, len(groups))
	for id := range groups {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		var targets []Target
		for k, ss := range samples {
			if k.group != id || len(ss) < cfg.MinMeasurements {
				continue
			}
			targets = append(targets, k.target)
		}
		if len(targets) == 0 {
			continue
		}
		sort.Slice(targets, func(i, j int) bool {
			if targets[i].Anycast != targets[j].Anycast {
				return targets[i].Anycast
			}
			return targets[i].Site < targets[j].Site
		})
		best, bestScore, anycastScore := Target{}, units.Millis(-1), units.Millis(1e18)
		for _, t := range targets {
			score, err := stats.Quantile(samples[sampleKey{id, t}], float64(cfg.Metric))
			if err != nil {
				continue
			}
			if t.Anycast {
				anycastScore = score
			}
			if bestScore < 0 || score < bestScore {
				best, bestScore = t, score
			}
		}
		if bestScore < 0 {
			continue
		}
		if !best.Anycast && anycastScore-bestScore <= cfg.HybridMarginMs && cfg.HybridMarginMs > 0 {
			best = AnycastTarget
		}
		pr.byGroup[id] = best
	}
	return pr
}

// synthObs builds a deterministic mixed workload: some groups dense enough
// to qualify several targets, some below the floor, ties included. Each
// (client, target) pair gets perTarget-4 to perTarget+4 samples in
// unsorted order. Every fourth client has a resolver of its own, so LDNS
// buckets straddle the floor too; the rest share twenty resolvers.
func synthObs(clients int, perTarget int) []Observation {
	var obs []Observation
	for c := uint64(0); c < uint64(clients); c++ {
		n := perTarget + int(c%9) - 4 // straddle the MinMeasurements floor
		ldns := dns.LDNSID(c % 20)
		if c%4 == 3 {
			ldns = dns.LDNSID(1000 + c)
		}
		for fe := 0; fe < 4; fe++ {
			t := Target{Site: topology.SiteID(fe)}
			if fe == 0 {
				t = AnycastTarget
			}
			for k := 0; k < n; k++ {
				obs = append(obs, Observation{
					ClientID: c,
					LDNS:     ldns,
					Target:   t,
					RTTms:    units.Millis(20 + (fe+k)%11),
					Slot:     uint8(fe),
				})
			}
		}
	}
	return obs
}

// TestTrainMatchesReference pins Train under both groupings, and
// TrainSamples over GroupSamples' output, to the reference on every
// prediction, with and without a hybrid margin. The workload has
// buckets just below, at and just above the 20-sample floor under both
// groupings.
func TestTrainMatchesReference(t *testing.T) {
	obs := synthObs(120, 22)
	for _, g := range []Grouping{ByPrefix, ByLDNS} {
		sizes := map[int]bool{}
		for _, c := range groupReference(obs, g) {
			for _, ts := range c.Targets {
				sizes[len(ts.RTTs)] = true
			}
		}
		if !sizes[19] || !sizes[20] || !sizes[21] {
			t.Fatalf("grouping %v: workload lacks a bucket of 19, 20 or 21 samples", g)
		}
	}
	for _, cfg := range []Config{
		DefaultConfig(),
		{Metric: MetricP25, MinMeasurements: 5},
		{Metric: MetricP25, MinMeasurements: 20, HybridMarginMs: 10},
		{Metric: MetricMedian, MinMeasurements: 20, HybridMarginMs: 10},
	} {
		p := NewPredictor(cfg)
		check := func(name string, got, want *Predictions) {
			t.Helper()
			if len(got.byGroup) != len(want.byGroup) {
				t.Fatalf("cfg %+v %s: %d predictions, reference has %d", cfg, name, len(got.byGroup), len(want.byGroup))
			}
			for id, wt := range want.byGroup {
				if got.byGroup[id] != wt {
					t.Fatalf("cfg %+v %s group %d: predicted %v, reference %v", cfg, name, id, got.byGroup[id], wt)
				}
			}
		}
		for _, g := range []Grouping{ByPrefix, ByLDNS} {
			check(g.String(), p.Train(obs, g), trainReference(p, obs, g))
		}
		check("TrainSamples", p.TrainSamples(GroupSamples(obs)), trainReference(p, obs, ByPrefix))
	}
}

func BenchmarkTrain(b *testing.B) {
	var obs []Observation
	for c := uint64(0); c < 200; c++ {
		for fe := 0; fe < 4; fe++ {
			t := Target{Site: topology.SiteID(fe)}
			if fe == 0 {
				t = AnycastTarget
			}
			for k := 0; k < 25; k++ {
				obs = append(obs, Observation{ClientID: c, LDNS: dns.LDNSID(c % 20), Target: t, RTTms: units.Millis(20 + fe*5 + k%7)})
			}
		}
	}
	p := NewPredictor(DefaultConfig())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = p.Train(obs, ByPrefix)
	}
}
