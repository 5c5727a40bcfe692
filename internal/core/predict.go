// Package core implements the paper's primary contribution (§6): a simple
// history-based prediction scheme that drives DNS redirection for the
// clients anycast underserves.
//
// The scheme, as the paper evaluates it:
//
//   - Group clients either by ECS /24 prefix or by LDNS.
//   - Per group and per target (the anycast address or a unicast
//     front-end), keep the latency measurements from one prediction
//     interval (one day).
//   - Consider only targets with at least 20 measurements from the group.
//   - Score each target with a low quantile of its latency distribution —
//     the paper uses the 25th percentile (and finds the median equivalent)
//     because higher percentiles are too noisy to predict with.
//   - Map the group to the best-scoring target; ties and missing data fall
//     back to anycast.
//   - Evaluate on the next interval, comparing the group's 50th and 75th
//     percentile latency to the predicted target against anycast.
//
// The package also implements the hybrid policy the paper proposes at the
// end of §6: only redirect a group away from anycast when the predicted
// gain clears a margin, leaving everyone else on anycast.
package core

import (
	"fmt"

	"anycastcdn/internal/beacon"
	"anycastcdn/internal/dns"
	"anycastcdn/internal/stats"
	"anycastcdn/internal/topology"
	"anycastcdn/internal/units"
)

// Target is a redirection choice: the anycast VIP or a unicast front-end.
type Target struct {
	Anycast bool
	Site    topology.SiteID
}

// AnycastTarget is the anycast redirection choice.
var AnycastTarget = Target{Anycast: true}

func (t Target) String() string {
	if t.Anycast {
		return "anycast"
	}
	return fmt.Sprintf("front-end(%d)", t.Site)
}

// Observation is one latency measurement attributed to a client group.
type Observation struct {
	ClientID uint64
	LDNS     dns.LDNSID
	Target   Target
	RTTms    units.Millis
	// Slot records which beacon measurement this was: 0 = anycast,
	// 1 = the front-end closest to the LDNS, 2-3 = the weighted-random
	// candidates (§3.3). Baselines like geo-DNS key off slot 1.
	Slot uint8
}

// FromMeasurement expands a beacon measurement into its four observations.
func FromMeasurement(m beacon.Measurement) []Observation {
	return AppendObservations(make([]Observation, 0, 4), m)
}

// AppendObservations appends a beacon measurement's four observations to
// dst: anycast (slot 0), then the three unicast samples (slots 1-3).
//
//perf:hotpath
func AppendObservations(dst []Observation, m beacon.Measurement) []Observation {
	dst = append(dst, Observation{
		ClientID: m.ClientID,
		LDNS:     m.LDNS,
		Target:   AnycastTarget,
		RTTms:    m.Anycast.RTTms,
		Slot:     0,
	})
	for i, u := range m.Unicast {
		dst = append(dst, Observation{
			ClientID: m.ClientID,
			LDNS:     m.LDNS,
			Target:   Target{Site: u.Site},
			RTTms:    u.RTTms,
			Slot:     uint8(i + 1),
		})
	}
	return dst
}

// Grouping selects the client aggregation a DNS-based redirector can act
// on.
type Grouping int

// Groupings of §6.
const (
	// ByPrefix groups by ECS client /24 (the paper's "EDNS-0" lines).
	ByPrefix Grouping = iota
	// ByLDNS groups by resolver (traditional DNS redirection).
	ByLDNS
)

func (g Grouping) String() string {
	if g == ByPrefix {
		return "ecs-prefix"
	}
	return "ldns"
}

// Metric is the prediction metric: which quantile of a target's latency
// distribution scores it.
type Metric float64

// Metrics the paper discusses.
const (
	MetricP25    Metric = 0.25
	MetricMedian Metric = 0.50
	MetricP75    Metric = 0.75
	MetricP95    Metric = 0.95
)

// Config parameterizes the predictor.
type Config struct {
	// Metric scores targets; the paper uses MetricP25.
	Metric Metric
	// MinMeasurements is the per-(group, target) floor; the paper uses 20.
	MinMeasurements int
	// HybridMarginMs only redirects a group away from anycast when the
	// predicted gain exceeds this margin (0 reproduces the paper's plain
	// scheme; positive values give the hybrid policy).
	HybridMarginMs units.Millis
}

// DefaultConfig is the paper's configuration.
func DefaultConfig() Config {
	return Config{Metric: MetricP25, MinMeasurements: 20}
}

// Predictor builds per-group redirection decisions from one interval's
// observations.
type Predictor struct {
	cfg Config
}

// NewPredictor returns a predictor. Invalid config fields are clamped to
// the paper's defaults.
func NewPredictor(cfg Config) *Predictor {
	if cfg.Metric <= 0 || cfg.Metric > 1 {
		cfg.Metric = MetricP25
	}
	if cfg.MinMeasurements < 1 {
		cfg.MinMeasurements = 20
	}
	if cfg.HybridMarginMs < 0 {
		cfg.HybridMarginMs = 0
	}
	return &Predictor{cfg: cfg}
}

// groupKey maps an observation to its group under g.
func groupKey(o Observation, g Grouping) uint64 {
	if g == ByPrefix {
		return o.ClientID
	}
	return uint64(o.LDNS)
}

// Predictions is a trained mapping from client group to target.
type Predictions struct {
	Grouping Grouping
	byGroup  map[uint64]Target
}

// Train builds predictions from one interval's observations: it groups
// them under g and scores each group's qualifying targets.
func (p *Predictor) Train(obs []Observation, g Grouping) *Predictions {
	return p.TrainWith(new(Grouper), obs, g)
}

// TrainWith is Train grouping in gr's storage, so a caller that trains
// every interval reuses one Grouper. It overwrites gr's last grouping.
func (p *Predictor) TrainWith(gr *Grouper, obs []Observation, g Grouping) *Predictions {
	return p.train(gr.Group(obs, g), g)
}

// TrainSamples builds ByPrefix predictions from an interval already
// grouped by GroupSamples, so one grouping serves every predictor and
// evaluation of the interval. It equals Train(obs, ByPrefix) over the
// observations the grouping came from.
func (p *Predictor) TrainSamples(day []ClientSamples) *Predictions {
	return p.train(day, ByPrefix)
}

// train scores groups in the order given (ascending key), each holding
// its targets in compareTargets order with every bucket sorted.
func (p *Predictor) train(groups []ClientSamples, g Grouping) *Predictions {
	pr := &Predictions{
		Grouping: g,
		byGroup:  make(map[uint64]Target, len(groups)),
	}
	for i := range groups {
		best, bestScore, anycastScore, ok := p.pickTarget(groups[i].Targets)
		if !ok {
			continue // no qualifying target: group stays on anycast implicitly
		}
		if !best.Anycast && anycastScore-bestScore <= p.cfg.HybridMarginMs {
			// Hybrid policy: the gain does not clear the margin (or
			// anycast itself is unmeasured); stay on anycast.
			if p.cfg.HybridMarginMs > 0 {
				best = AnycastTarget
			}
		}
		pr.byGroup[groups[i].ClientID] = best
	}
	return pr
}

// pickTarget scores the group's qualifying sample buckets, which come
// sorted, in target order (anycast first, then unicast by site id), and
// returns the best target; the first of equal scores wins. anycastScore
// is the anycast target's score (inf if unmeasured).
func (p *Predictor) pickTarget(targets []TargetSamples) (best Target, bestScore, anycastScore units.Millis, ok bool) {
	bestScore = -1
	anycastScore = 1e18
	for _, ts := range targets {
		if len(ts.RTTs) < p.cfg.MinMeasurements {
			continue
		}
		score, err := stats.QuantileSorted(ts.RTTs, float64(p.cfg.Metric))
		if err != nil {
			continue
		}
		if ts.Target.Anycast {
			anycastScore = score
		}
		if bestScore < 0 || score < bestScore {
			best, bestScore = ts.Target, score
		}
	}
	return best, bestScore, anycastScore, bestScore >= 0
}

// For returns the prediction for a client, defaulting to anycast when the
// group is unknown (a client group with too little history keeps anycast —
// exactly what a deployed hybrid system would do).
func (pr *Predictions) For(clientID uint64, ldns dns.LDNSID) Target {
	var k uint64
	if pr.Grouping == ByPrefix {
		k = clientID
	} else {
		k = uint64(ldns)
	}
	if t, ok := pr.byGroup[k]; ok {
		return t
	}
	return AnycastTarget
}

// RedirectedFraction returns the fraction of predicted groups steered away
// from anycast.
func (pr *Predictions) RedirectedFraction() float64 {
	if len(pr.byGroup) == 0 {
		return 0
	}
	n := 0
	for _, t := range pr.byGroup {
		if !t.Anycast {
			n++
		}
	}
	return float64(n) / float64(len(pr.byGroup))
}
