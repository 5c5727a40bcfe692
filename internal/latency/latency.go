// Package latency models client-perceived round-trip latency for the
// simulator.
//
// An RTT sample decomposes as:
//
//	RTT = lastMile(prefix)                         // access-network delay
//	    + airKm * inflation(path) / fiberFactor    // public Internet leg
//	    + backboneKm * backboneInflation / fiber   // CDN backbone leg
//	    + congestion(path, day)                    // per-day transient event
//	    + jitter(measurement)                      // per-sample noise
//
// The public Internet leg carries a per-path inflation factor drawn once
// per (prefix, ingress) pair — real paths are consistently inflated over
// the great circle (Spring et al., "The Causes of Path Inflation", which
// the paper cites when discussing anycast's blindness). The CDN backbone
// leg is nearly straight-line: a production backbone is engineered, which
// is why entering the CDN near the client and riding the backbone
// (anycast's behaviour) is usually at least as fast as a pure Internet
// path to the same front-end (the unicast beacon target's behaviour).
//
// Everything is deterministic per (seed, path, day, sample index).
package latency

import (
	"anycastcdn/internal/units"
	"anycastcdn/internal/xrand"
)

// Path identifies one network path from a client prefix into a front-end.
type Path struct {
	// PrefixID is the stable ID of the client /24.
	PrefixID uint64
	// EntryKey distinguishes paths from the same prefix: the ingress site
	// for anycast paths or the front-end site for direct unicast paths.
	EntryKey uint64
	// AirKm is the great-circle distance of the public Internet leg
	// (client to ingress/front-end).
	AirKm units.Kilometers
	// BackboneKm is the CDN-internal distance (ingress to front-end);
	// zero for unicast paths, which ingress at the front-end's own
	// peering point per §3.1 of the paper.
	BackboneKm units.Kilometers
	// Household distinguishes end hosts within the /24: a prefix contains
	// many households with different access links, so measurements from
	// the same /24 to the same front-end still differ by a few ms
	// depending on which household ran the beacon. Zero is a valid
	// household.
	Household uint64
	// Unicast marks a beacon unicast path. Because the unicast /24 is
	// announced only at the peering point closest to its front-end
	// (§3.1), the client's ISP must haul the traffic to that specific
	// interconnect instead of handing off at its nearest exchange; the
	// extra intra-ISP haul costs a few milliseconds. Anycast traffic
	// early-exits into the CDN backbone and avoids it.
	Unicast bool
}

// Config parameterizes the model. The zero value is not useful; use
// DefaultConfig.
type Config struct {
	// FiberKmPerMs is one-way propagation speed in fiber (~200 km/ms);
	// RTT doubles it.
	FiberKmPerMs float64
	// InflationMin/Max bound the per-path public-Internet inflation
	// factor (multiplies the great-circle distance).
	InflationMin float64
	InflationMax float64
	// BackboneInflation multiplies backbone distance (engineered paths,
	// close to 1).
	BackboneInflation float64
	// LastMileMedianMs and LastMileSigma parameterize the lognormal
	// access-network delay per prefix; HouseholdSigma adds per-household
	// variation around the prefix's base (see Path.Household).
	LastMileMedianMs units.Millis
	LastMileSigma    float64
	HouseholdSigma   float64
	// CongestionDailyRate is the probability that a given path suffers a
	// transient congestion event on a given day; CongestionMeanMs is the
	// mean of the exponential extra delay.
	CongestionDailyRate float64
	CongestionMeanMs    units.Millis
	// JitterMeanMs is the mean per-sample exponential jitter.
	JitterMeanMs units.Millis
	// JitterBurstProb and JitterBurstMeanMs model the heavy tail of
	// one-shot browser measurements (cross traffic, wifi retransmits,
	// renderer scheduling): with probability JitterBurstProb a sample
	// gains an additional exponential delay. Bursts dominate per-request
	// comparisons (Figure 3) but medians wash them out (Figure 5).
	JitterBurstProb   float64
	JitterBurstMeanMs units.Millis
	// UnicastDetourMedianMs and UnicastDetourSigma parameterize the
	// lognormal per-(prefix, front-end) haul penalty of unicast beacon
	// paths (see Path.Unicast).
	UnicastDetourMedianMs units.Millis
	UnicastDetourSigma    float64
	// PrimitiveTimingBiasMs is the mean positive bias of JavaScript
	// primitive timings versus the W3C Resource Timing API (§3.2.2).
	PrimitiveTimingBiasMs units.Millis
	// ResourceTimingSupportRate is the fraction of browsers supporting
	// the Resource Timing API, whose measurements replace primitive ones.
	ResourceTimingSupportRate float64
}

// DefaultConfig returns the calibration used by the experiments.
func DefaultConfig() Config {
	return Config{
		FiberKmPerMs:              200,
		InflationMin:              1.25,
		InflationMax:              2.0,
		BackboneInflation:         1.05,
		LastMileMedianMs:          9,
		LastMileSigma:             0.45,
		HouseholdSigma:            0.45,
		CongestionDailyRate:       0.05,
		CongestionMeanMs:          55,
		JitterMeanMs:              1.2,
		JitterBurstProb:           0.12,
		JitterBurstMeanMs:         70,
		UnicastDetourMedianMs:     3.0,
		UnicastDetourSigma:        0.6,
		PrimitiveTimingBiasMs:     12,
		ResourceTimingSupportRate: 0.85,
	}
}

// Package-level label hashes: every per-sample substream derivation pays
// only integer mixing, not a byte loop over the label string (the seeds
// are identical to the string-label derivations; see xrand.Label).
var (
	labelLastMile   = xrand.NewLabel("lastmile")
	labelInflation  = xrand.NewLabel("inflation")
	labelHousehold  = xrand.NewLabel("household")
	labelDetour     = xrand.NewLabel("unicast-detour")
	labelCongestion = xrand.NewLabel("congestion")
	labelJitter     = xrand.NewLabel("jitter")
	labelTiming     = xrand.NewLabel("timing")
	labelTimingBias = xrand.NewLabel("timing-bias")
)

// Model produces latency samples. It holds no mutable state, so it is
// safe for concurrent use without locks: every value is a pure function
// of the seed, the configuration and the call's arguments.
type Model struct {
	cfg  Config
	seed uint64
}

// NewModel returns a model rooted at seed.
func NewModel(seed uint64, cfg Config) *Model {
	return &Model{cfg: cfg, seed: seed}
}

// Config returns the model's configuration.
func (m *Model) Config() Config { return m.cfg }

// LastMileMs returns the prefix's stable access-network delay.
func (m *Model) LastMileMs(prefixID uint64) units.Millis {
	var rs xrand.Stream
	rs.Reseed(xrand.DeriveSeedL1(m.seed, labelLastMile, prefixID))
	return units.Millis(m.cfg.LastMileMedianMs.Float() * rs.LogNormal(0, m.cfg.LastMileSigma))
}

// inflation returns the stable inflation factor for a path.
func (m *Model) inflation(p Path) float64 {
	var rs xrand.Stream
	rs.Reseed(xrand.DeriveSeedL2(m.seed, labelInflation, p.PrefixID, p.EntryKey))
	return m.cfg.InflationMin + rs.Float64()*(m.cfg.InflationMax-m.cfg.InflationMin)
}

// BaseRTTms returns the stable (no congestion, no jitter) round-trip time
// of a path in milliseconds.
func (m *Model) BaseRTTms(p Path) units.Millis {
	return m.pathDay(p).baseRTTms(m.HouseholdLastMileMs(m.LastMileMs(p.PrefixID), p.PrefixID, p.Household))
}

// HouseholdLastMileMs returns a household's stable access-network delay:
// prefixLastMile, the prefix's LastMileMs, scaled by the household's
// stable factor (see Path.Household).
func (m *Model) HouseholdLastMileMs(prefixLastMile units.Millis, prefixID, household uint64) units.Millis {
	return units.Millis(prefixLastMile.Float() * m.householdFactor(prefixID, household))
}

// householdFactor returns the stable multiplicative last-mile variation of
// a household of the prefix.
func (m *Model) householdFactor(prefixID, household uint64) float64 {
	if m.cfg.HouseholdSigma <= 0 {
		return 1
	}
	var rs xrand.Stream
	rs.Reseed(xrand.DeriveSeedL2(m.seed, labelHousehold, prefixID, household))
	return rs.LogNormal(0, m.cfg.HouseholdSigma)
}

// PathDay holds the terms of a path's day RTT that every household of
// the prefix shares: the public-Internet and backbone legs, the unicast
// detour and the day's congestion. A caller measuring one path from
// several households on one day draws them once (PathDayOf) and adds
// each household's last mile (PathDay.DayRTTms).
type PathDay struct {
	prop, backbone, detour, congestion units.Millis
}

// PathDayOf returns the household-independent terms of p's day RTT on
// day; p.Household is ignored.
func (m *Model) PathDayOf(p Path, day int) PathDay {
	d := m.pathDay(p)
	d.congestion = m.CongestionMs(p, day)
	return d
}

// pathDay returns p's stable terms, congestion left zero.
func (m *Model) pathDay(p Path) PathDay {
	return PathDay{
		prop:     units.Millis(2 * p.AirKm.Float() * m.inflation(p) / m.cfg.FiberKmPerMs),
		backbone: units.Millis(2 * p.BackboneKm.Float() * m.cfg.BackboneInflation / m.cfg.FiberKmPerMs),
		detour:   m.unicastDetourMs(p),
	}
}

// baseRTTms is the base RTT of the path from a household whose last mile
// is lastMile.
func (d PathDay) baseRTTms(lastMile units.Millis) units.Millis {
	return lastMile + d.prop + d.backbone + d.detour
}

// DayRTTms returns the day RTT of the path from a household whose
// HouseholdLastMileMs is lastMile. With the household's own last mile it
// is Model.DayRTTms, bit for bit.
//
//perf:hotpath
func (d PathDay) DayRTTms(lastMile units.Millis) units.Millis {
	return d.baseRTTms(lastMile) + d.congestion
}

// unicastDetourMs returns the stable haul penalty of a unicast beacon path
// (zero for anycast paths).
func (m *Model) unicastDetourMs(p Path) units.Millis {
	if !p.Unicast || m.cfg.UnicastDetourMedianMs <= 0 {
		return 0
	}
	var rs xrand.Stream
	rs.Reseed(xrand.DeriveSeedL2(m.seed, labelDetour, p.PrefixID, p.EntryKey))
	return units.Millis(m.cfg.UnicastDetourMedianMs.Float() * rs.LogNormal(0, m.cfg.UnicastDetourSigma))
}

// CongestionMs returns the extra delay the path suffers on the given day
// (zero on most days). The event is stable within a day, producing the
// "poor path for exactly one day" pattern of Figure 6.
func (m *Model) CongestionMs(p Path, day int) units.Millis {
	var rs xrand.Stream
	rs.Reseed(xrand.DeriveSeedL3(m.seed, labelCongestion, p.PrefixID, p.EntryKey, uint64(day)))
	if !rs.Bool(m.cfg.CongestionDailyRate) {
		return 0
	}
	return units.Millis(rs.Exp(m.cfg.CongestionMeanMs.Float()))
}

// DayRTTms returns the path RTT for a given day including any congestion
// event but no per-sample jitter. Every sample of a path-day shares this
// value, so a caller that takes several samples of one path on one day
// computes it once (or assembles it from a memoized PathDay and last mile)
// and draws each sample with SampleFromDayRTTInto.
func (m *Model) DayRTTms(p Path, day int) units.Millis {
	return m.PathDayOf(p, day).DayRTTms(m.HouseholdLastMileMs(m.LastMileMs(p.PrefixID), p.PrefixID, p.Household))
}

// JitterPrefix returns the part of a path-day's jitter derivation that
// every sample of it shares: the path's PrefixID and EntryKey and the
// day. A sample's jitter substream is the prefix extended by its sample
// key (xrand.Extend), so a caller taking several samples of one path-day
// derives the prefix once.
//
//perf:hotpath
func (m *Model) JitterPrefix(prefixID, entryKey uint64, day int) uint64 {
	return xrand.DeriveSeedL3(m.seed, labelJitter, prefixID, entryKey, uint64(day))
}

// SampleFromDayRTTInto returns one RTT sample of a path-day: dayRTT, the
// path's DayRTTms on the day, plus the jitter of the sample whose key is
// sampleKey, drawn from jitter, the path-day's JitterPrefix. sampleKey
// must differ between samples of the same path and day. rs is stream
// scratch, reseeded before use, so one stack-allocated Stream can serve
// every sample of a measurement.
//
//perf:hotpath
func (m *Model) SampleFromDayRTTInto(rs *xrand.Stream, dayRTT units.Millis, jitter, sampleKey uint64) units.Millis {
	rs.Reseed(xrand.Extend(jitter, sampleKey))
	rtt := dayRTT.Float() + rs.Exp(m.cfg.JitterMeanMs.Float())
	if m.cfg.JitterBurstProb > 0 && rs.Bool(m.cfg.JitterBurstProb) {
		rtt += rs.Exp(m.cfg.JitterBurstMeanMs.Float())
	}
	return units.Millis(rtt)
}

// Browser is a client browser's timing model (§3.2.2 of the paper):
// whether it supports the W3C Resource Timing API, and if not, the
// derivation prefix of its timing-bias draws. Support is stable per
// browser, so a caller measuring one browser many times draws it once
// (Model.Browser).
type Browser struct {
	resourceTiming bool
	bias           uint64
}

// Browser draws the timing model of the browser browserKey identifies.
//
//perf:hotpath
func (m *Model) Browser(browserKey uint64) Browser {
	var rs xrand.Stream
	rs.Reseed(xrand.DeriveSeedL1(m.seed, labelTiming, browserKey))
	if rs.Bool(m.cfg.ResourceTimingSupportRate) {
		return Browser{resourceTiming: true}
	}
	return Browser{bias: xrand.DeriveSeedL1(m.seed, labelTimingBias, browserKey)}
}

// MeasuredRTTmsInto applies the beacon's timing-API model to a true
// sample: a browser with Resource Timing support reports it exactly, and
// one without reports a positively biased value from JavaScript primitive
// timings, drawn for the sample whose key is sampleKey. rs is stream
// scratch, reseeded before use (see SampleFromDayRTTInto).
//
//perf:hotpath
func (m *Model) MeasuredRTTmsInto(rs *xrand.Stream, trueRTT units.Millis, b Browser, sampleKey uint64) units.Millis {
	if b.resourceTiming {
		return trueRTT
	}
	rs.Reseed(xrand.Extend(b.bias, sampleKey))
	return trueRTT + units.Millis(rs.Exp(m.cfg.PrimitiveTimingBiasMs.Float()))
}
