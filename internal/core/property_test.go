package core

import (
	"testing"
	"testing/quick"

	"anycastcdn/internal/dns"
	"anycastcdn/internal/topology"
	"anycastcdn/internal/units"
	"anycastcdn/internal/xrand"
)

// genObservations builds a random but well-formed observation set from a
// seed: a handful of clients and targets with latencies in a plausible
// range.
func genObservations(seed uint64, n int) []Observation {
	rs := xrand.New(seed)
	obs := make([]Observation, n)
	for i := range obs {
		client := uint64(rs.Intn(6))
		target := AnycastTarget
		if rs.Bool(0.7) {
			target = Target{Site: topology.SiteID(rs.Intn(4))}
		}
		obs[i] = Observation{
			ClientID: client,
			LDNS:     dns.LDNSID(client % 3),
			Target:   target,
			RTTms:    units.Millis(10 + rs.Float64()*90),
			Slot:     uint8(rs.Intn(4)),
		}
	}
	return obs
}

func TestTrainPermutationInvariantProperty(t *testing.T) {
	p := NewPredictor(Config{Metric: MetricP25, MinMeasurements: 5})
	f := func(seed uint64) bool {
		obs := genObservations(seed, 300)
		pred1 := p.Train(obs, ByPrefix)
		// Shuffle and retrain: the prediction must not depend on input
		// order.
		shuffled := append([]Observation(nil), obs...)
		rs := xrand.New(seed ^ 0xabcdef)
		for i := len(shuffled) - 1; i > 0; i-- {
			j := rs.Intn(i + 1)
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		}
		pred2 := p.Train(shuffled, ByPrefix)
		if len(pred1.byGroup) != len(pred2.byGroup) {
			return false
		}
		for c := uint64(0); c < 6; c++ {
			if pred1.For(c, dns.LDNSID(c%3)) != pred2.For(c, dns.LDNSID(c%3)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestTrainChoosesQualifyingMinimumProperty(t *testing.T) {
	// Whatever the predictor picks for a group must have the lowest
	// metric among qualifying targets (ties broken toward anycast).
	cfg := Config{Metric: MetricP25, MinMeasurements: 5}
	p := NewPredictor(cfg)
	f := func(seed uint64) bool {
		obs := genObservations(seed, 400)
		pred := p.Train(obs, ByPrefix)
		// Recompute by brute force.
		byGroupTarget := map[uint64]map[Target][]units.Millis{}
		for _, o := range obs {
			if byGroupTarget[o.ClientID] == nil {
				byGroupTarget[o.ClientID] = map[Target][]units.Millis{}
			}
			byGroupTarget[o.ClientID][o.Target] = append(byGroupTarget[o.ClientID][o.Target], o.RTTms)
		}
		for client, targets := range byGroupTarget {
			chosen := pred.For(client, 0)
			chosenSamples, ok := targets[chosen]
			if !ok {
				// Fallback to anycast is allowed when nothing qualified.
				if !chosen.Anycast {
					return false
				}
				continue
			}
			if chosen.Anycast && len(chosenSamples) < cfg.MinMeasurements {
				// Anycast fallback without qualification is fine.
				continue
			}
			chosenScore := quantileOf(chosenSamples, float64(cfg.Metric))
			for target, ss := range targets {
				if len(ss) < cfg.MinMeasurements || target == chosen {
					continue
				}
				score := quantileOf(ss, float64(cfg.Metric))
				if score < chosenScore-1e-9 {
					return false // a strictly better qualifying target existed
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func quantileOf(xs []units.Millis, q float64) units.Millis {
	s := append([]units.Millis(nil), xs...)
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
	if len(s) == 1 {
		return s[0]
	}
	pos := q * float64(len(s)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return units.Millis(s[lo].Float()*(1-frac) + s[lo+1].Float()*frac)
}

func TestEvaluateWeightsProperty(t *testing.T) {
	// Every evaluation must carry the volume weight when provided, 1
	// otherwise, and anycast predictions always evaluate to exactly 0.
	p := NewPredictor(Config{Metric: MetricP25, MinMeasurements: 5})
	f := func(seed uint64) bool {
		train := genObservations(seed, 300)
		next := genObservations(seed^1, 300)
		pred := p.Train(train, ByPrefix)
		vols := map[uint64]float64{0: 2.5, 1: 7}
		evals := Evaluator{Percentile: 0.5, MinSamples: 2}.Evaluate(pred, next, vols)
		for _, e := range evals {
			want := 1.0
			if v, ok := vols[e.ClientID]; ok {
				want = v
			}
			if e.Weight != want {
				return false
			}
			if e.Predicted.Anycast && e.ImprovementMs != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestHybridNeverRedirectsMoreProperty(t *testing.T) {
	// A hybrid margin can only reduce the set of redirected groups.
	plain := NewPredictor(Config{Metric: MetricP25, MinMeasurements: 5})
	hybrid := NewPredictor(Config{Metric: MetricP25, MinMeasurements: 5, HybridMarginMs: 8})
	f := func(seed uint64) bool {
		obs := genObservations(seed, 400)
		pp := plain.Train(obs, ByPrefix)
		hp := hybrid.Train(obs, ByPrefix)
		for c := uint64(0); c < 6; c++ {
			pt := pp.For(c, 0)
			ht := hp.For(c, 0)
			if pt.Anycast && !ht.Anycast {
				return false // hybrid redirected where plain did not
			}
			if !ht.Anycast && ht != pt {
				return false // hybrid may only keep plain's choice or fall back
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
