package core

import (
	"cmp"

	"anycastcdn/internal/dns"
	"anycastcdn/internal/stats"
	"anycastcdn/internal/units"
)

// Evaluation is the next-interval outcome for one client /24 (§6): the
// difference between anycast performance and predicted-target performance
// at an evaluation percentile. Positive improvement means the prediction
// beat anycast; negative means the prediction made things worse — both
// sides appear in Figure 9.
type Evaluation struct {
	ClientID uint64
	// Predicted is the target the scheme chose for the client's group.
	Predicted Target
	// ImprovementMs = anycast percentile − predicted-target percentile.
	// Zero when the scheme predicted anycast.
	ImprovementMs units.Millis
	// Weight is the client's query volume (Figure 9 weights by volume).
	Weight float64
}

// Evaluator scores predictions against the following interval's
// observations.
type Evaluator struct {
	// Percentile of the next-day per-target distribution to compare; the
	// paper reports the 50th and 75th ("the Bing team routinely uses 75th
	// percentile latency as an internal benchmark").
	Percentile float64
	// MinSamples is the per-(client, target) floor for an evaluation to
	// count; clients without enough anycast or predicted-target samples
	// the next day are skipped (unmeasurable, as in the paper's join).
	MinSamples int
}

// TargetSamples is one target's latency samples within a group.
type TargetSamples struct {
	Target Target
	RTTs   []units.Millis
}

// ClientSamples is one client's observations of an interval, grouped per
// target.
type ClientSamples struct {
	ClientID uint64
	// LDNS is the resolver of the client's last observation.
	LDNS dns.LDNSID
	// Closest is the target of the client's last slot-1 observation (the
	// front-end closest to its LDNS), or AnycastTarget if it has none.
	Closest Target
	// Targets holds anycast first, then front-ends by ascending site;
	// each target's RTTs are sorted ascending.
	Targets []TargetSamples
}

// samples returns the client's sorted samples to t, nil if unmeasured.
func (c *ClientSamples) samples(t Target) []units.Millis {
	for i := range c.Targets {
		if c.Targets[i].Target == t {
			return c.Targets[i].RTTs
		}
	}
	return nil
}

// compareTargets orders anycast first, then front-ends by site.
func compareTargets(a, b Target) int {
	if a.Anycast != b.Anycast {
		if a.Anycast {
			return -1
		}
		return 1
	}
	return cmp.Compare(a.Site, b.Site)
}

// GroupSamples groups one interval's observations per client, then per
// target, sorting each target's RTTs once: the one per-(client, target)
// grouping every latency analysis reads. Clients come out in ascending
// ID order; the input may be in any order.
func GroupSamples(obs []Observation) []ClientSamples {
	return new(Grouper).Group(obs, ByPrefix)
}

// Evaluate computes per-client evaluations of pred over the next
// interval's observations. volumes maps client→query volume; clients
// missing from it get weight 1.
func (ev Evaluator) Evaluate(pred *Predictions, next []Observation, volumes map[uint64]float64) []Evaluation {
	return ev.EvaluateSamples(nil, pred, GroupSamples(next), func(client uint64) float64 {
		if v, ok := volumes[client]; ok {
			return v
		}
		return 1
	})
}

// EvaluateSamples is Evaluate over an interval already grouped by
// GroupSamples, so one grouping serves every prediction and percentile
// scored against it. weight gives each client's weight; evaluations are
// appended to dst in the day's client order, and the extended slice is
// returned.
func (ev Evaluator) EvaluateSamples(dst []Evaluation, pred *Predictions, day []ClientSamples, weight func(client uint64) float64) []Evaluation {
	if ev.Percentile <= 0 || ev.Percentile > 1 {
		ev.Percentile = 0.5
	}
	if ev.MinSamples < 1 {
		ev.MinSamples = 1
	}
	for i := range day {
		c := &day[i]
		target := pred.For(c.ClientID, c.LDNS)
		e := Evaluation{ClientID: c.ClientID, Predicted: target, Weight: weight(c.ClientID)}
		if target.Anycast {
			// The scheme kept the client on anycast: no change either way.
			dst = append(dst, e)
			continue
		}
		anySamples, predSamples := c.samples(AnycastTarget), c.samples(target)
		if len(anySamples) < ev.MinSamples || len(predSamples) < ev.MinSamples {
			continue // cannot evaluate this client
		}
		anyQ, err1 := stats.QuantileSorted(anySamples, ev.Percentile)
		predQ, err2 := stats.QuantileSorted(predSamples, ev.Percentile)
		if err1 != nil || err2 != nil {
			continue
		}
		e.ImprovementMs = anyQ - predQ
		dst = append(dst, e)
	}
	return dst
}
