// Package logs models the CDN's passive server logs (§3.2.1): per-request
// records of which front-end served each client, aggregated per client /24
// and day. The front-end affinity analysis of §5 (Figures 7 and 8) reads
// these records; experiments.StreamSuite folds them one day at a time.
//
// The log is stored column-wise (struct-of-arrays): parallel slices per
// field instead of a slice of row structs. Passive logs are the one
// dataset that scales with prefixes × days — the paper's covers millions
// of client /24s over a month — and the columnar layout cuts a record
// from 48 padded AoS bytes to 28 (the switched flag rides in the
// prev-front-end column's sign bit instead of its own padded byte), keeps
// each reader touching only the columns it reads, and lets the parallel
// simulation reduce write disjoint indices of shared columns with no
// per-client row buffers. Rows materialize only at the API edge: Append
// and Set take a DayRecord, At returns one.
package logs

import "anycastcdn/internal/topology"

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
