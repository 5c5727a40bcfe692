// Package logs models the CDN's passive server logs (§3.2.1): per-request
// records of which front-end served each client, aggregated per client /24
// and day. The front-end affinity analysis of §5 (Figures 7 and 8) runs
// over these logs.
//
// The log is stored column-wise (struct-of-arrays): parallel slices per
// field instead of a slice of row structs. Passive logs are the one
// dataset that scales with prefixes × days — the paper's covers millions
// of client /24s over a month — and the columnar layout cuts a record
// from 48 padded AoS bytes to 28 (the switched flag rides in the
// prev-front-end column's sign bit instead of its own padded byte), keeps
// each analysis touching only the columns it reads, and lets the parallel
// simulation reduce write disjoint indices of shared columns with no
// per-client row buffers. Rows materialize only at the API edge: Append
// and Set take a DayRecord, At returns one.
package logs

import (
	"sort"

	"anycastcdn/internal/geo"
	"anycastcdn/internal/topology"
	"anycastcdn/internal/units"
)

// DayRecord summarizes one client /24's production traffic on one day.
// It is the row view of the columnar log: cheap to materialize (a handful
// of scalar loads), never stored.
type DayRecord struct {
	ClientID uint64
	Day      int
	// FrontEnd is the front-end serving the client at the end of the day.
	FrontEnd topology.SiteID
	// Switched reports whether a route change occurred during the day;
	// PrevFrontEnd is the front-end before the change (it can equal
	// FrontEnd when only the ingress changed).
	Switched     bool
	PrevFrontEnd topology.SiteID
	// Queries is the number of requests the prefix issued that day.
	Queries int
}

// FrontEndChanged reports whether the record represents a visible
// front-end change (the client "landed on multiple front-ends" that day).
func (r DayRecord) FrontEndChanged() bool {
	return r.Switched && r.PrevFrontEnd != r.FrontEnd
}

// switchedBit marks a route change in the packed prev-front-end column.
// Site IDs are small non-negative integers, so the top bit is free.
const switchedBit = uint32(1) << 31

// Log is an append-only columnar collection of day records.
type Log struct {
	clientIDs []uint64
	days      []int32
	frontEnds []topology.SiteID
	// prevPacked holds PrevFrontEnd in the low 31 bits and Switched in
	// the top bit.
	prevPacked []uint32
	queries    []int32
}

// Append adds a record.
func (l *Log) Append(r DayRecord) {
	l.clientIDs = append(l.clientIDs, r.ClientID)
	l.days = append(l.days, int32(r.Day))
	l.frontEnds = append(l.frontEnds, r.FrontEnd)
	l.prevPacked = append(l.prevPacked, packPrev(r))
	l.queries = append(l.queries, int32(r.Queries))
}

func packPrev(r DayRecord) uint32 {
	p := uint32(r.PrevFrontEnd)
	if r.Switched {
		p |= switchedBit
	}
	return p
}

// Grow reserves capacity for n additional records, so bulk loaders (the
// simulation reduce knows its exact row count up front) avoid incremental
// reallocation.
func (l *Log) Grow(n int) {
	if n <= 0 {
		return
	}
	if free := cap(l.clientIDs) - len(l.clientIDs); free < n {
		l.clientIDs = append(make([]uint64, 0, len(l.clientIDs)+n), l.clientIDs...)
		l.days = append(make([]int32, 0, len(l.days)+n), l.days...)
		l.frontEnds = append(make([]topology.SiteID, 0, len(l.frontEnds)+n), l.frontEnds...)
		l.prevPacked = append(make([]uint32, 0, len(l.prevPacked)+n), l.prevPacked...)
		l.queries = append(make([]int32, 0, len(l.queries)+n), l.queries...)
	}
}

// Extend appends n zero records and returns the index of the first, so a
// bulk producer that knows its exact row count can size the log once and
// then fill disjoint index ranges with Set — including concurrently: Set
// calls on distinct indices of an extended log are race-free, which is
// what lets the parallel simulation reduce write worker outputs straight
// into the shared log.
func (l *Log) Extend(n int) int {
	base := len(l.clientIDs)
	if n <= 0 {
		return base
	}
	l.Grow(n)
	l.clientIDs = l.clientIDs[: base+n : base+n]
	l.days = l.days[: base+n : base+n]
	l.frontEnds = l.frontEnds[: base+n : base+n]
	l.prevPacked = l.prevPacked[: base+n : base+n]
	l.queries = l.queries[: base+n : base+n]
	return base
}

// Set overwrites record i.
func (l *Log) Set(i int, r DayRecord) {
	l.clientIDs[i] = r.ClientID
	l.days[i] = int32(r.Day)
	l.frontEnds[i] = r.FrontEnd
	l.prevPacked[i] = packPrev(r)
	l.queries[i] = int32(r.Queries)
}

// Len returns the number of records.
func (l *Log) Len() int { return len(l.clientIDs) }

// At materializes record i as a row.
func (l *Log) At(i int) DayRecord {
	p := l.prevPacked[i]
	return DayRecord{
		ClientID:     l.clientIDs[i],
		Day:          int(l.days[i]),
		FrontEnd:     l.frontEnds[i],
		Switched:     p&switchedBit != 0,
		PrevFrontEnd: topology.SiteID(p &^ switchedBit),
		Queries:      int(l.queries[i]),
	}
}

// frontEndChanged is At(i).FrontEndChanged() without materializing the
// row: the record saw a route change that landed on a different front-end.
func (l *Log) frontEndChanged(i int) bool {
	p := l.prevPacked[i]
	return p&switchedBit != 0 && topology.SiteID(p&^switchedBit) != l.frontEnds[i]
}

// CumulativeSwitched computes Figure 7: for each day in [0, days), the
// fraction of active clients that have seen at least one front-end change
// on any day up to and including it. Clients with no traffic in the window
// are excluded (the paper can only observe clients that appear in logs).
func (l *Log) CumulativeSwitched(days int) []float64 {
	firstChange := map[uint64]int{}
	active := map[uint64]bool{}
	for i := range l.clientIDs {
		day := int(l.days[i])
		if day < 0 || day >= days || l.queries[i] == 0 {
			continue
		}
		active[l.clientIDs[i]] = true
		if l.frontEndChanged(i) {
			if d, ok := firstChange[l.clientIDs[i]]; !ok || day < d {
				firstChange[l.clientIDs[i]] = day
			}
		}
	}
	out := make([]float64, days)
	if len(active) == 0 {
		return out
	}
	perDay := make([]int, days)
	//replay:commutative integer histogram increments; per-day counts are order-independent
	for _, d := range firstChange {
		perDay[d]++
	}
	cum := 0
	for d := 0; d < days; d++ {
		cum += perDay[d]
		out[d] = float64(cum) / float64(len(active))
	}
	return out
}

// SwitchDistancesKm computes Figure 8's sample: for every observable
// front-end change in the log, the distance between the old and new
// front-end sites. Records with zero queries are excluded — a real
// passive log has no row at all for a silent client-day, so a switch
// there is invisible. This is the same observability rule
// CumulativeSwitched applies, keeping Figures 7 and 8 consistent.
func (l *Log) SwitchDistancesKm(b *topology.Backbone) []units.Kilometers {
	var out []units.Kilometers
	for i := range l.clientIDs {
		if l.queries[i] == 0 || !l.frontEndChanged(i) {
			continue
		}
		p := l.prevPacked[i]
		a := b.Site(topology.SiteID(p &^ switchedBit)).Metro.Point
		c := b.Site(l.frontEnds[i]).Metro.Point
		out = append(out, geo.DistanceKm(a, c))
	}
	return out
}

// FrontEndShare returns, per front-end, the fraction of total queries it
// served. Useful for load sanity checks and ablations.
func (l *Log) FrontEndShare() map[topology.SiteID]float64 {
	counts := map[topology.SiteID]int{}
	total := 0
	for i := range l.frontEnds {
		counts[l.frontEnds[i]] += int(l.queries[i])
		total += int(l.queries[i])
	}
	out := make(map[topology.SiteID]float64, len(counts))
	if total == 0 {
		return out
	}
	//replay:commutative each key is written once from an integer count; no cross-key accumulation
	for fe, c := range counts {
		out[fe] = float64(c) / float64(total)
	}
	return out
}

// FrontEndQueriesOnDay totals the queries each front-end served on one
// day — the passive log's view of per-site load, which is what the
// load-management experiments compare against derived capacities. Counts
// accumulate in int64 so a month of surged int32 records cannot
// overflow.
func (l *Log) FrontEndQueriesOnDay(day int) map[topology.SiteID]int64 {
	out := map[topology.SiteID]int64{}
	for i := range l.frontEnds {
		if int(l.days[i]) == day && l.queries[i] > 0 {
			out[l.frontEnds[i]] += int64(l.queries[i])
		}
	}
	return out
}

// PeakFrontEndQueries returns, across the given number of days, the
// busiest (front-end, day) load in the log.
func (l *Log) PeakFrontEndQueries(days int) int64 {
	totals := make(map[int64]int64)
	for i := range l.frontEnds {
		if l.queries[i] > 0 {
			totals[int64(l.frontEnds[i])*int64(days)+int64(l.days[i])] += int64(l.queries[i])
		}
	}
	var peak int64
	//replay:commutative max over values; the maximum is order-independent
	for _, q := range totals {
		if q > peak {
			peak = q
		}
	}
	return peak
}

// ClientDays returns the sorted list of days on which the client appears
// with traffic.
func (l *Log) ClientDays(clientID uint64) []int {
	var out []int
	for i := range l.clientIDs {
		if l.clientIDs[i] == clientID && l.queries[i] > 0 {
			out = append(out, int(l.days[i]))
		}
	}
	sort.Ints(out)
	return out
}
