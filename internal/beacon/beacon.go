// Package beacon implements the paper's client-side measurement system
// (§3.2.2): a JavaScript beacon injected into a fraction of search result
// pages that, after the page loads, fetches four test URLs — one resolved
// to the anycast VIP and three to unicast front-ends chosen by the
// authoritative DNS (§3.3) — and reports the download latencies together
// with a globally unique query ID that lets the backend join client-side
// HTTP results with server-side DNS logs.
//
// Modeled beacon details:
//   - a warm-up request removes DNS lookup latency from the measurement
//     (so samples reflect only the client↔front-end path);
//   - browsers supporting the W3C Resource Timing API report accurate
//     timings; others report positively biased primitive timings
//     (latency.Model.MeasuredRTTmsInto).
package beacon

import (
	"math"

	"anycastcdn/internal/bgp"
	"anycastcdn/internal/clients"
	"anycastcdn/internal/dns"
	"anycastcdn/internal/faults"
	"anycastcdn/internal/geo"
	"anycastcdn/internal/latency"
	"anycastcdn/internal/topology"
	"anycastcdn/internal/units"
	"anycastcdn/internal/xrand"
)

// TargetSample is the measured latency to one front-end.
type TargetSample struct {
	Site  topology.SiteID
	RTTms units.Millis
}

// Measurement is one beacon execution: the anycast sample plus three
// unicast samples, joined with the DNS-side record by QueryID.
type Measurement struct {
	QueryID  uint64
	ClientID uint64
	Day      int
	Region   geo.Region
	LDNS     dns.LDNSID
	// Anycast is measurement (a) of §3.3.
	Anycast TargetSample
	// Unicast are measurements (b)-(d): the front-end closest to the
	// LDNS, then two weighted-random candidates.
	Unicast [3]TargetSample
}

// BestUnicast returns the lowest-latency unicast sample.
func (m Measurement) BestUnicast() TargetSample {
	best := m.Unicast[0]
	for _, u := range m.Unicast[1:] {
		if u.RTTms < best.RTTms {
			best = u
		}
	}
	return best
}

// AnycastPenaltyMs returns how much slower anycast was than the best
// unicast sample (negative when anycast won), the quantity of Figure 3.
func (m Measurement) AnycastPenaltyMs() units.Millis {
	return m.Anycast.RTTms - m.BestUnicast().RTTms
}

// labelBeacon seeds the per-execution DNS target-selection stream; hashed
// once so the per-beacon derivation is allocation-free.
var labelBeacon = xrand.NewLabel("beacon")

// Executor runs beacons against the simulated world.
type Executor struct {
	Router    *bgp.Router
	Authority *dns.Authority
	Latency   *latency.Model
	Mapping   *dns.Mapping
	Seed      uint64
	// Faults optionally injects scenario events into executions: an
	// ldns-outage swaps the client's resolver for its public fallback,
	// and an inflate adds latency to every sample of the region. A nil
	// injector (the fault-free case) changes nothing.
	Faults *faults.Injector
}

// Run executes one beacon for the given client on the given day using the
// precomputed anycast assignment for that day. queryID must be globally
// unique; it seeds the randomized DNS target selection and sample noise.
// It is a one-beacon Batch: a client-day's beacons run through one Batch
// give the same measurements and share its memo.
//
//perf:hotpath
func (e *Executor) Run(c clients.Client, day int, assign bgp.Assignment, queryID uint64) Measurement {
	var b Batch
	b.Start(e, c, day, assign)
	return b.Run(queryID)
}

// MeasureCandidates measures the client against every candidate front-end
// of its LDNS plus anycast. The paper could not afford this per beacon
// ("measuring from each client to every front-end would introduce too much
// overhead") but uses the near-equivalent union over time for Figure 1's
// diminishing-returns analysis; the simulator can do it directly.
func (e *Executor) MeasureCandidates(c clients.Client, day int, assign bgp.Assignment, queryID uint64) (Measurement, []TargetSample) {
	var b Batch
	b.Start(e, c, day, assign)
	m := b.measurement(queryID)
	var rs xrand.Stream
	m.Anycast = b.sample(&rs, 0, queryID, 0)
	out := make([]TargetSample, len(b.cands))
	for i := range out {
		out[i] = b.sample(&rs, 1+i, queryID, uint64(i+1))
	}
	return m, out
}

// householdsPerPrefix is how many end hosts of a /24 run beacons. Each
// execution runs in household queryID % householdsPerPrefix, and all four
// samples of the execution share it.
const householdsPerPrefix = 6

// memoCols is how many paths a Batch memoizes: the anycast path, then the
// unicast paths to the LDNS's candidates by rank. A candidate list holds
// at most dns.DefaultCandidates sites, so the memo covers every path a
// client-day can touch, householdsPerPrefix × memoCols = 6 × (1 + 10) =
// 66.
const memoCols = 1 + dns.DefaultCandidates

// Batch executes one client-day's beacons, doing each piece of the
// client-day's work once. Start resolves the day's LDNS, its candidate
// list, the prefix's last mile, the client's browser (latency.Browser),
// the client's unicast terms (bgp.UnicastClient) and the beacon seed's
// derivation prefix. Each path's household-independent day-RTT terms
// (latency.PathDay) and jitter prefix are memoized by column, where
// column 0 is the day's anycast path and column 1+r the unicast path to
// the candidate of rank r, and each household's last mile by household.
// Within one (client, day, assignment) a column fixes the path, so a day
// RTT is the sum of two memo entries: a hit skips the unicast distance
// and every day-RTT draw, and only the per-sample jitter and
// timing-model draws run — from the same substreams in the same order as
// a fresh Batch, which keeps the memo invisible in every output.
//
// A Batch is not safe for concurrent use. Its zero value is not usable
// before Start, and Start empties the memo, so one Batch can serve many
// client-days in turn.
type Batch struct {
	e      *Executor
	rc     bgp.Client
	uc     bgp.UnicastClient
	region geo.Region
	day    int
	assign bgp.Assignment
	ldns   dns.LDNSID
	cands  []topology.SiteID
	extra  units.Millis
	// beacon is the derivation prefix of every execution's
	// target-selection stream, which the query ID extends.
	beacon  uint64
	browser latency.Browser
	// lastMile is the prefix's latency.Model.LastMileMs; hh[h] holds
	// household h's HouseholdLastMileMs once hhSet[h].
	lastMile units.Millis
	hhSet    [householdsPerPrefix]bool
	hh       [householdsPerPrefix]units.Millis
	// paths[c] and jitter[c] hold column c's terms and its
	// latency.Model.JitterPrefix once pathSet[c].
	pathSet [memoCols]bool
	paths   [memoCols]latency.PathDay
	jitter  [memoCols]uint64
}

// Start points b at client c's beacons on day, with assign the day's
// anycast assignment, and empties the memo.
//
//perf:hotpath
func (b *Batch) Start(e *Executor, c clients.Client, day int, assign bgp.Assignment) {
	ldns := e.Faults.Resolver(e.Mapping.Resolver(c.ID), day)
	rc := bgp.Client{PrefixID: c.ID, Point: c.Point, ISP: c.ISP}
	*b = Batch{
		e:      e,
		rc:     rc,
		uc:     e.Router.UnicastClient(rc),
		region: c.Region,
		day:    day,
		assign: assign,
		ldns:   ldns.ID,
		cands:  e.Authority.Candidates(ldns),
		// An inflate event adds latency to every sample of the region.
		extra:  e.Faults.InflationMs(c.Region, day),
		beacon: xrand.DeriveSeedL(e.Seed, labelBeacon),
		// Browser timing fidelity is a property of the client, keyed by
		// the client prefix (households keep their browser for the study
		// window).
		browser:  e.Latency.Browser(c.ID),
		lastMile: e.Latency.LastMileMs(c.ID),
	}
}

// Run executes one beacon of the batch; see Executor.Run.
//
//perf:hotpath
func (b *Batch) Run(queryID uint64) Measurement {
	// One stack-allocated stream serves the whole execution: first as the
	// DNS target-selection stream, then (reseeded per sample) as scratch
	// for all four latency samples.
	var rs xrand.Stream
	rs.Reseed(xrand.Extend(b.beacon, queryID))
	ranks := b.e.Authority.TargetRanks(&rs)
	m := b.measurement(queryID)
	m.Anycast = b.sample(&rs, 0, queryID, 0)
	for i, r := range ranks {
		m.Unicast[i] = b.sample(&rs, 1+r, queryID, uint64(i+1))
	}
	return m
}

// measurement returns query queryID's measurement with its samples unset.
func (b *Batch) measurement(queryID uint64) Measurement {
	return Measurement{
		QueryID:  queryID,
		ClientID: b.rc.PrefixID,
		Day:      b.day,
		Region:   b.region,
		LDNS:     b.ldns,
	}
}

// sample produces one measured RTT over the path of memo column col. The
// batch's regional fault inflation is added to the true RTT before
// browser-timing distortion, since real congestion delays the path, not
// the clock. rs is stream scratch, reseeded before each draw, shared
// across a measurement's targets.
//
//perf:hotpath
func (b *Batch) sample(rs *xrand.Stream, col int, queryID, slot uint64) TargetSample {
	a := b.assign
	if col > 0 {
		// A unicast path ingresses at its front-end's own peering point.
		site := b.cands[col-1]
		a = bgp.Assignment{Ingress: site, FrontEnd: site, Unicast: true}
	}
	var pd latency.PathDay
	var jitter uint64
	if b.pathSet[col] {
		pd, jitter = b.paths[col], b.jitter[col]
	} else {
		if col > 0 {
			a = b.e.Router.UnicastAssignmentFrom(&b.uc, a.FrontEnd)
		}
		pd = b.e.Latency.PathDayOf(latency.Path{
			PrefixID:   b.rc.PrefixID,
			EntryKey:   uint64(a.Ingress),
			AirKm:      a.AirKm,
			BackboneKm: a.BackboneKm,
			Unicast:    a.Unicast,
		}, b.day)
		jitter = b.e.Latency.JitterPrefix(b.rc.PrefixID, uint64(a.Ingress), b.day)
		b.paths[col], b.jitter[col], b.pathSet[col] = pd, jitter, true
	}
	h := queryID % householdsPerPrefix
	if !b.hhSet[h] {
		b.hh[h], b.hhSet[h] = b.e.Latency.HouseholdLastMileMs(b.lastMile, b.rc.PrefixID, h), true
	}
	sampleKey := queryID*8 + slot
	trueRTT := b.e.Latency.SampleFromDayRTTInto(rs, pd.DayRTTms(b.hh[h]), jitter, sampleKey) + b.extra
	measured := b.e.Latency.MeasuredRTTmsInto(rs, trueRTT, b.browser, sampleKey)
	// Browser timings are reported at millisecond granularity; the
	// analysis in §5-6 sees integer-ms latencies.
	return TargetSample{
		Site:  a.FrontEnd,
		RTTms: units.Millis(math.Round(measured.Float())),
	}
}
