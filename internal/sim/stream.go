package sim

import (
	"fmt"

	"anycastcdn/internal/beacon"
	"anycastcdn/internal/bgp"
	"anycastcdn/internal/topology"
	"anycastcdn/internal/units"
	"anycastcdn/internal/xrand"
)

// DayResult is one simulated day's output, delivered in day order.
//
// All three slices are OWNED BY THE STREAM and reused for the next day:
// they are valid only until the callback passed to Stream/StreamWorld
// returns. A consumer that needs data past that point must copy it —
// which is the point: streaming consumers aggregate online precisely so
// nothing per-day is retained.
type DayResult struct {
	Day int
	// Beacons holds the day's active measurements (client order, each
	// client's executions in query order).
	Beacons []beacon.Measurement
	// Passive holds the day's per-client log records (client order, one
	// per client).
	Passive []DayRecord
	// Assignments holds the day's effective anycast assignment per client
	// (client order), after any fault rewrite; RunWorld stores it as
	// Result.Assignments[i][Day].
	Assignments []bgp.Assignment
	// Utilization holds the day's per-front-end load picture; nil unless
	// Config.LoadManager is active. When load management redirects a
	// client's queries, Passive[i].FrontEnd is the effective serving
	// front-end while Assignments[i].FrontEnd stays the anycast one —
	// the difference IS the shed volume.
	Utilization []SiteUtil
}

// DayRecord summarizes one client /24's production traffic on one day:
// one row of the CDN's passive server logs (§3.2.1), from which the
// front-end affinity analysis of §5 (Figures 7 and 8) reads which
// front-end served each client.
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

// Stream simulates cfg.Days days, invoking fn once per day with that
// day's outputs and retaining only one day in memory — the mode to use
// for paper-scale runs (millions of prefixes) whose full measurement set
// would not fit. Run is the same day loop with every day kept in a
// Result.
func Stream(cfg Config, fn func(DayResult) error) error {
	w, err := BuildWorld(cfg)
	if err != nil {
		return err
	}
	return StreamWorld(cfg, w, fn)
}

// StreamWorld streams over an already-built world.
//
// Steady-state memory is one flat schedule array (one 2-byte
// bgp.ScheduleEntry per client-day, holding the day's ingress and switch
// bit — the only cross-day state the simulation needs, since the rest of
// an assignment is a pure function of the ingress) plus per-client state
// and per-day output buffers that are allocated once and reused for every
// day. A load-managed run also keeps the schedule pass's query draws,
// 2 bytes per client-day. A million-prefix 30-day run therefore holds a
// few hundred MB, not the tens of GB the batch Result would occupy. After
// the schedule pass, steady-state day iterations allocate nothing
// (enforced by TestStreamWorldSteadyStateAllocs).
//
// On error from fn the stream stops immediately; all workers have already
// joined (the pool runs per phase, never across fn), so nothing leaks and
// the buffers become garbage as soon as StreamWorld returns.
func StreamWorld(cfg Config, w *World, fn func(DayResult) error) error {
	base := int(w.Population.Base)
	return streamRange(cfg, w, ShardOpts{Lo: base, Hi: base + len(w.Population.Clients)}, false, fn)
}

// ShardOpts selects the client slice a StreamShard call simulates and
// wires in the coordination hooks a multi-process run needs.
type ShardOpts struct {
	// Lo and Hi bound the global client-ID range [Lo, Hi) this stream
	// simulates. The world's population must cover the range — either a
	// full build, or a BuildShardWorld whose materialized clients include
	// it. The shard restricts which clients' days are simulated and
	// logged.
	Lo, Hi int
	// ExchangeLoad, when set on a load-managed run, is called once, right
	// after the schedule pass: it receives the range's fault-free load
	// matrix (ShardLoadMatrix over [Lo, Hi), which the pass accumulates)
	// and must return the capacities CapsFromLoadMatrix derives from the
	// FULL population's matrix, one per backbone site — in a distributed
	// run, by reducing every shard's matrix on the coordinator and
	// broadcasting the derivation. Without it a managed stream derives
	// capacities from its own range, which must then be the world's whole
	// population. Ignored when Config.LoadManager is nil.
	ExchangeLoad func(shard []float64) ([]float64, error)
	// ExchangeDemand, when set on a load-managed run, is called once per
	// day between demand aggregation and the policy step: it receives the
	// shard's offered load by ingress, one entry per backbone site (the
	// manager's scratch vector, valid only during the call), and must
	// return the full-population demand in the same layout — in a
	// distributed run, by reducing every shard's vector on the
	// coordinator and broadcasting the sum. The policy state machine then
	// steps on global demand in every worker, keeping the replicas
	// bitwise-identical. Ignored when Config.LoadManager is nil.
	ExchangeDemand func(day int, shard []float64) ([]float64, error)
}

// StreamShard streams days for the clients in opts' range only — one
// worker's slice of a distributed run. DayResult slices are indexed
// 0..Hi-Lo-1 (record ClientIDs stay global). Per-client outputs are
// schedule-independent (per-entity substreams), so the concatenation of
// contiguous shard streams in shard order reproduces, record for record,
// the single-process StreamWorld over the same world.
func StreamShard(cfg Config, w *World, opts ShardOpts, fn func(DayResult) error) error {
	return streamRange(cfg, w, opts, false, fn)
}

// streamRange is the day loop. With keepBeacons every day's Beacons is a
// fresh slice the consumer may retain, which is how RunWorld keeps them:
// the parallel beacon pass fills the slice, where copying each day out
// of a reused buffer would run serially between days.
func streamRange(cfg Config, w *World, opts ShardOpts, keepBeacons bool, fn func(DayResult) error) error {
	if fn == nil {
		return fmt.Errorf("sim: nil stream function")
	}
	base := int(w.Population.Base)
	if opts.Lo < base || opts.Hi < opts.Lo || opts.Hi > base+len(w.Population.Clients) {
		return fmt.Errorf("sim: shard range [%d, %d) outside population [%d, %d)",
			opts.Lo, opts.Hi, base, base+len(w.Population.Clients))
	}
	// cl[i] is the client with global ID opts.Lo+i: the range's clients,
	// positioned relative to whatever slice of the population this world
	// materialized.
	cl := w.Population.Clients[opts.Lo-base:]
	n := opts.Hi - opts.Lo
	days := cfg.Days

	// A managed stream derives its capacities from the fault-free load
	// matrix, which the schedule pass accumulates: one partial matrix per
	// pool worker, summed once the pass is done. The pass draws every
	// client-day's queries for it, and keeps each draw in qs for the day
	// pass.
	var acc *loadAccum
	var parts [][]float64
	var qs []uint16
	if lm := cfg.LoadManager; lm != nil {
		if err := lm.Validate(); err != nil {
			return err
		}
		if opts.ExchangeLoad == nil && n != len(w.Population.Clients) {
			return fmt.Errorf("sim: load-managed stream over [%d, %d), part of the population [%d, %d), needs ShardOpts.ExchangeLoad to derive capacities",
				opts.Lo, opts.Hi, base, base+len(w.Population.Clients))
		}
		acc = newLoadAccum(cfg, w)
		qs = make([]uint16, n*days)
		parts = make([][]float64, poolSize(n, cfg.Workers))
		for p := range parts {
			parts[p] = acc.matrix()
		}
	}

	// Per-client-day schedule entries, packed flat (client-major): the
	// day's ingress and switch bit in 2 bytes. A full assignment is ~48
	// bytes per client-day — gigabytes at paper scale — while the ingress
	// alone determines the rest of each day's assignment, which
	// Router.AssignAir plus the fault rewrite recompute.
	scheds := make([]bgp.ScheduleEntry, n*days)
	// prevFE[i] is client i's serving front-end at the end of the previous
	// day (the base assignment before day 0), carried across days for the
	// passive log's switch records.
	prevFE := make([]topology.SiteID, n)
	// airKm[i] is client i's distance to its scheduled ingress. It depends
	// only on the client's point and that ingress, so logDay computes it
	// on day 0 and on the days the scheduled ingress changes, and reuses
	// it on every other day. It is stream-private: a fault rewrite can
	// move the Assignments consumers see to another ingress and distance,
	// so it is never read back from there.
	airKm := make([]units.Kilometers, n)
	bb := w.Deployment.Backbone
	parallelFor(n, cfg.Workers, func(wk, i int) {
		c := &cl[i]
		rc := bgp.Client{PrefixID: c.ID, Point: c.Point, ISP: c.ISP}
		sched := scheds[i*days : (i+1)*days]
		baseIngress := w.Router.IngressScheduleInto(rc, sched)
		prevFE[i], _ = bb.HotPotatoFrontEnd(baseIngress)
		if acc != nil {
			acc.add(parts[wk], c, sched, qs[i*days:(i+1)*days])
		}
	})
	caps, err := rangeCapacities(cfg, w, opts, parts)
	if err != nil {
		return err
	}
	mgr, err := newLoadManager(cfg, w, caps)
	if err != nil {
		return err
	}

	// Per-day output buffers, reused across days. Unless keepBeacons is
	// set, the beacon buffer grows to the busiest day seen and stays there.
	passive := make([]DayRecord, n)
	assigns := make([]bgp.Assignment, n)
	counts := make([]int32, n)
	offs := make([]int32, n)
	var beacons []beacon.Measurement
	trafficSeed := xrand.DeriveSeedL(cfg.Seed, labelTraffic)
	// The worker bodies are hoisted out of the day loop and capture the
	// loop state (day, weekend, faulted, beacons) by reference: a closure
	// literal inside the loop would allocate once per day, which the
	// steady-state contract forbids. faulted is whether today lies in the
	// injector's active window; its rewrite and scaling return their input
	// unchanged on every other day, so logDay skips them there.
	var day int
	var weekend, faulted bool
	logDay := func(_, i int) {
		c := &cl[i]
		rc := bgp.Client{PrefixID: c.ID, Point: c.Point, ISP: c.ISP}
		e := scheds[i*days+day]
		ingress := e.Ingress()
		if day == 0 || ingress != scheds[i*days+day-1].Ingress() {
			airKm[i] = w.Router.AirKm(rc, ingress)
		}
		a := w.Router.AssignAir(ingress, airKm[i])
		if faulted {
			a = w.Faults.Rewrite(rc, day, a, w.Router)
		}
		assigns[i] = a
		var q int
		if qs != nil && qs[i*days+day] != saturatedQueries {
			q = int(qs[i*days+day])
		} else {
			q = c.QueriesOnDay(trafficSeed, day, weekend, cfg.QueriesPerVolume)
		}
		if faulted {
			q = w.Faults.ScaleQueries(c.Region, day, q)
		}
		passive[i] = DayRecord{
			ClientID:     c.ID,
			Day:          day,
			FrontEnd:     a.FrontEnd,
			Switched:     e.Switched(),
			PrevFrontEnd: prevFE[i],
			Queries:      q,
		}
		// Only this worker touches index i today, so the end-of-day
		// front-end commits as soon as the record has the old one. With
		// an active manager the commit waits for applyLoad: the day's
		// effective front-end is not known until the policy has run.
		if mgr == nil {
			prevFE[i] = a.FrontEnd
		}
		if q > 0 {
			counts[i] = int32(beaconCount(cfg, c.ID, day, q))
		} else {
			counts[i] = 0
		}
	}
	// applyLoad re-routes one client's day through the active policy:
	// passive records move to the effective serving front-end while
	// assigns keeps the anycast path (beacons measure anycast and the
	// per-front-end unicast targets regardless of which front-end served
	// the page that carried them). Allocated once, outside the day loop.
	applyLoad := func(_, i int) {
		a := assigns[i]
		fe := mgr.route(cfg.Seed, cl[i].ID, day, a, passive[i].Queries)
		if fe != a.FrontEnd {
			passive[i].FrontEnd = fe
		}
		prevFE[i] = fe
	}
	// runBeacons runs client i's beacons for the day as one batch, which
	// resolves the client-day's LDNS once and shares one path memo across
	// its executions.
	runBeacons := func(_, i int) {
		nb := int(counts[i])
		if nb == 0 {
			return
		}
		c := &cl[i]
		out := beacons[offs[i] : int(offs[i])+nb]
		var b beacon.Batch
		b.Start(w.Executor, *c, day, assigns[i])
		qids := xrand.DeriveSeedL2(cfg.Seed, labelQID, c.ID, uint64(day))
		for k := range out {
			out[k] = b.Run(xrand.Extend(qids, uint64(k)))
		}
	}
	for day = 0; day < days; day++ {
		weekend = w.Router.IsWeekend(day)
		faulted = w.Faults.ActiveOn(day)
		parallelFor(n, cfg.Workers, logDay)
		var utils []SiteUtil
		if mgr != nil {
			// Load management runs between logging and beacons: the
			// controller needs the whole day's offered load, its decision
			// re-routes the day's queries, and the effective per-site
			// volumes are snapshotted for the day's output.
			demand := mgr.demandFrom(passive, assigns)
			if opts.ExchangeDemand != nil {
				global, err := opts.ExchangeDemand(day, demand)
				if err != nil {
					return err
				}
				demand = global
			}
			mgr.policyStep(demand)
			parallelFor(n, cfg.Workers, applyLoad)
			utils = mgr.observeServed(passive)
		}
		// Exclusive prefix sum: client i's beacons start at offs[i], so
		// the execution pass writes disjoint ranges of the shared buffer.
		var total int32
		for i := range counts {
			offs[i] = total
			total += counts[i]
		}
		if int(total) > cap(beacons) || keepBeacons {
			beacons = make([]beacon.Measurement, total)
		} else {
			beacons = beacons[:total]
		}
		if total > 0 {
			parallelFor(n, cfg.Workers, runBeacons)
		}
		if err := fn(DayResult{Day: day, Beacons: beacons, Passive: passive, Assignments: assigns, Utilization: utils}); err != nil {
			return err
		}
	}
	return nil
}

// rangeCapacities returns a managed stream's per-site capacities,
// derived from parts, the range's partial load matrices — through
// opts.ExchangeLoad when set, locally otherwise. It returns nil for an
// unmanaged run.
func rangeCapacities(cfg Config, w *World, opts ShardOpts, parts [][]float64) ([]float64, error) {
	if cfg.LoadManager == nil {
		return nil, nil
	}
	m := parts[0]
	for _, p := range parts[1:] {
		for j, v := range p {
			m[j] += v
		}
	}
	if opts.ExchangeLoad != nil {
		return opts.ExchangeLoad(m)
	}
	return CapsFromLoadMatrix(cfg, w, m)
}
