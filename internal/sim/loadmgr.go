package sim

import (
	"fmt"
	"math"
	"slices"

	"anycastcdn/internal/bgp"
	"anycastcdn/internal/clients"
	"anycastcdn/internal/load"
	"anycastcdn/internal/logs"
	"anycastcdn/internal/topology"
	"anycastcdn/internal/xrand"
)

// SiteUtil is one front-end's load picture for one simulated day under
// load management: the queries it actually served after any DNS-layer
// redirection, against its derived capacity.
type SiteUtil struct {
	Site topology.SiteID
	// Queries is the effective served volume (post-redirection).
	Queries float64
	// Capacity is the site's derived capacity.
	Capacity float64
	// ShedFrac is the site's ring-0 shed fraction at end of day (zero
	// unless the FastRoute policy is active).
	ShedFrac float64
	// Withdrawn reports whether the naive strategy withdrew the site's
	// route this day.
	Withdrawn bool
}

// Utilization is the served-to-capacity ratio (1.0 = at capacity).
func (u SiteUtil) Utilization() float64 { return u.Queries / u.Capacity }

// loadManager drives the load package inside the simulation day loop.
// One instance exists per StreamWorld invocation when Config.LoadManager
// is set; all of its state is deterministic functions of (config, world),
// so managed runs replay byte-identically. Every per-site vector is
// indexed by SiteID, one entry per backbone site.
type loadManager struct {
	policy load.Policy
	bb     *topology.Backbone
	fes    []topology.SiteID // bb.FrontEnds(), the order of each day's utilization
	caps   []float64
	// bal is the layered balancer; non-nil only for the FastRoute
	// policy. Its shed fractions persist across days, which is what
	// carries the controller's hysteresis through a multi-day surge.
	bal *load.Balancer
	// withdrawn is the Withdraw policy's decision state, carried across
	// days; routeWithdrawn is the set actually applied to TODAY's routing
	// (yesterday's decision — route withdrawal reacts a control interval
	// late, which is what makes the paper's cascade roll); and
	// rehome[ingress] caches where anycast re-homes each ingress's
	// traffic under routeWithdrawn. The two sets are distinct vectors
	// for the manager's life: each day, withdrawer's step reads
	// routeWithdrawn and rewrites withdrawn in place.
	withdrawn      []bool
	routeWithdrawn []bool
	rehome         []topology.SiteID
	withdrawer     *load.Withdrawer
	// The rest is per-day scratch, reused: the day's demand by ingress
	// and its served volume by front-end.
	demand []float64
	served []float64
	utils  []SiteUtil
}

// ShardLoadMatrix accumulates the fault-free scheduled load of clients
// [lo, hi) into a flat [Days][front-end] matrix (day-major, front-ends in
// bb.FrontEnds() order): cell (d, f) is the sum of those clients'
// fault-free day-d queries whose scheduled catchment is front-end f. The
// matrix is the distributable half of capacity derivation — queries are
// integers, so float64 cell sums are exact and shard matrices reduce by
// plain addition into exactly the full-population matrix, regardless of
// how the population was sharded. CapsFromLoadMatrix is the other half.
//
// A managed stream accumulates the same matrix inside its own schedule
// pass (loadAccum); this standalone form repeats the schedule pass
// serially, holding one Days x front-ends matrix plus a Days-length
// scratch schedule and queries column.
func ShardLoadMatrix(cfg Config, w *World, lo, hi int) ([]float64, error) {
	if cfg.LoadManager == nil {
		return nil, fmt.Errorf("sim: load matrix requested without a load-manager config")
	}
	base := int(w.Population.Base)
	if lo < base || hi < lo || hi > base+len(w.Population.Clients) {
		return nil, fmt.Errorf("sim: load-matrix shard [%d, %d) outside population [%d, %d)", lo, hi, base, base+len(w.Population.Clients))
	}
	acc := newLoadAccum(cfg, w)
	m := acc.matrix()
	sched := make([]bgp.ScheduleEntry, cfg.Days)
	qs := make([]uint16, cfg.Days)
	for i := lo; i < hi; i++ {
		cl := &w.Population.Clients[i-base]
		w.Router.IngressScheduleInto(bgp.Client{PrefixID: cl.ID, Point: cl.Point, ISP: cl.ISP}, sched)
		acc.add(m, cl, sched, qs)
	}
	return m, nil
}

// loadAccum adds clients' fault-free scheduled load to a ShardLoadMatrix
// layout. Every addend is an integer query count and every cell stays far
// below 2^53, so the cells are exact integers whatever the order of the
// additions: partial matrices over any split of the clients sum to the
// same matrix bit for bit.
type loadAccum struct {
	cols int
	// col[s] is the matrix column of the hot-potato front-end of traffic
	// ingressing at site s.
	col         []int
	weekend     []bool
	trafficSeed uint64
	perVolume   float64
}

// newLoadAccum prepares the accumulation of cfg's days over w's
// deployment.
func newLoadAccum(cfg Config, w *World) *loadAccum {
	bb := w.Deployment.Backbone
	fes := bb.FrontEnds()
	feCol := make([]int, bb.NumSites())
	for i, fe := range fes {
		feCol[fe] = i
	}
	a := &loadAccum{
		cols:        len(fes),
		col:         make([]int, bb.NumSites()),
		weekend:     make([]bool, cfg.Days),
		trafficSeed: xrand.DeriveSeedL(cfg.Seed, labelTraffic),
		perVolume:   cfg.QueriesPerVolume,
	}
	for s := range a.col {
		fe, _ := bb.HotPotatoFrontEnd(topology.SiteID(s))
		a.col[s] = feCol[fe]
	}
	for d := range a.weekend {
		a.weekend[d] = w.Router.IsWeekend(d)
	}
	return a
}

// matrix returns a zero matrix in the accumulator's layout.
func (a *loadAccum) matrix() []float64 { return make([]float64, len(a.weekend)*a.cols) }

// saturatedQueries is the queries column's ceiling. An entry holding it
// stands for any count of at least that many, so the day pass redraws it.
const saturatedQueries = math.MaxUint16

// add adds client c's fault-free queries on each day of its schedule to
// that day's cell of its scheduled catchment, and stores each day's count
// in qs (one entry per schedule day), saturated at saturatedQueries. The
// count is QueriesOnDay's, a pure function of the client and the day
// before any fault scales it, so the day pass reads qs instead of drawing
// it again. The client's queries prefix is derived once for the month.
//
//perf:hotpath
func (a *loadAccum) add(m []float64, c *clients.Client, sched []bgp.ScheduleEntry, qs []uint16) {
	prefix := c.QueriesPrefix(a.trafficSeed)
	for d, e := range sched {
		q := c.QueriesFrom(prefix, d, a.weekend[d], a.perVolume)
		qs[d] = uint16(min(q, saturatedQueries))
		m[d*a.cols+a.col[e.Ingress()]] += float64(q)
	}
}

// CapsFromLoadMatrix derives per-front-end capacities from a full
// population load matrix (ShardLoadMatrix over [0, n), or the elementwise
// sum of shard matrices): headroom over each site's peak fault-free day,
// floored at half the fleet-mean peak. A pure serial function of the
// matrix, so every process that holds the same reduced matrix — the
// coordinator and each worker replica of a distributed run — derives
// bitwise-identical capacities.
func CapsFromLoadMatrix(cfg Config, w *World, m []float64) ([]float64, error) {
	if cfg.LoadManager == nil {
		return nil, fmt.Errorf("sim: capacity derivation requested without a load-manager config")
	}
	bb := w.Deployment.Backbone
	fes := bb.FrontEnds()
	if len(m) != cfg.Days*len(fes) {
		return nil, fmt.Errorf("sim: load matrix has %d cells, want %d days x %d front-ends", len(m), cfg.Days, len(fes))
	}
	// Capacity is headroom over each site's PEAK day at the SCHEDULED
	// catchment (clients switch front-ends across days even without
	// faults, so the base-day catchment would under-provision the sites
	// those switches land on), because daily per-prefix volume is
	// lognormally bursty — a site provisioned for its mean day would
	// overload on ordinary fault-free days. The floor keeps idle sites
	// some spillover slack without letting a regional flash crowd hide
	// inside a floor that dwarfs small catchments. Deterministic
	// front-end order for the sums; every other site keeps capacity 0.
	caps := make([]float64, bb.NumSites())
	var mean float64
	for f := range fes {
		var peak float64
		for d := 0; d < cfg.Days; d++ {
			if v := m[d*len(fes)+f]; v > peak {
				peak = v
			}
		}
		caps[fes[f]] = peak
		mean += peak
	}
	mean /= float64(len(fes))
	for _, fe := range fes {
		q := caps[fe]
		if q < mean/2 {
			q = mean / 2
		}
		caps[fe] = load.Headroom * q
	}
	return caps, nil
}

// newLoadManager compiles cfg.LoadManager against a built world and the
// per-site capacities caps derived from the fault-free load matrix, so
// every policy arm of an experiment sees identical capacities and rings.
// It returns (nil, nil) when the subsystem is inactive; cfg.LoadManager
// must already be validated.
func newLoadManager(cfg Config, w *World, caps []float64) (*loadManager, error) {
	if cfg.LoadManager == nil {
		return nil, nil
	}
	bb := w.Deployment.Backbone
	if len(caps) != bb.NumSites() {
		return nil, fmt.Errorf("sim: %d capacities for %d sites", len(caps), bb.NumSites())
	}
	// Copy: DeriveRings raises deep-ring capacities in place and the
	// caller's vector must stay untouched.
	own := slices.Clone(caps)
	layers := load.DeriveRings(bb, own)
	fes := bb.FrontEnds()
	m := &loadManager{
		policy:         cfg.LoadManager.Policy,
		bb:             bb,
		fes:            fes,
		caps:           own,
		withdrawn:      make([]bool, bb.NumSites()),
		routeWithdrawn: make([]bool, bb.NumSites()),
		withdrawer:     load.NewWithdrawer(bb),
		demand:         make([]float64, bb.NumSites()),
		served:         make([]float64, bb.NumSites()),
		utils:          make([]SiteUtil, 0, len(fes)),
		rehome:         make([]topology.SiteID, bb.NumSites()),
	}
	if m.policy == load.FastRoute {
		bal, err := load.NewBalancer(bb, layers, own)
		if err != nil {
			return nil, err
		}
		m.bal = bal
	}
	return m, nil
}

// demandFrom aggregates the day's offered load by ingress over the given
// records. Serial, in client order, so the demand sums are bit-stable
// regardless of worker count — and integer-valued, so per-shard demand
// vectors reduce exactly into the full-population one. The returned
// vector is the manager's reusable scratch, valid until the next call.
func (m *loadManager) demandFrom(passive []logs.DayRecord, assigns []bgp.Assignment) []float64 {
	clear(m.demand)
	for i := range passive {
		m.demand[assigns[i].Ingress] += float64(passive[i].Queries)
	}
	return m.demand
}

// policyStep runs the policy's control decision against a day's offered
// load. In a sharded run every worker calls this with the SAME
// coordinator-reduced global demand vector, so the policy state machines
// — balancer shed fractions, withdrawal sets — stay bitwise-identical
// replicas on every process.
func (m *loadManager) policyStep(demand []float64) {
	switch m.policy {
	case load.Static:
		// Observe only.
	case load.FastRoute:
		// Intra-day fixpoint of the distributed watermark controller:
		// within a simulated day the real system runs many short control
		// rounds, so the day's shed fractions are the equilibrium the
		// local rules reach (bounded by StepsPerDay). State persists to
		// the next day — that is the hysteresis across the surge window.
		m.bal.Converge(demand, load.StepsPerDay)
	case load.Withdraw:
		// Today's routing applies yesterday's decision, then tonight's
		// decision reacts to today's offered load under that routing: the
		// naive operator only sees overload after it has happened, so the
		// first interval's withdrawals dump their catchments onto
		// neighbours that the next interval withdraws in turn.
		copy(m.routeWithdrawn, m.withdrawn)
		for id := range m.rehome {
			m.rehome[id] = load.NearestStandingFE(m.bb, topology.SiteID(id), m.routeWithdrawn)
		}
		m.withdrawer.Step(demand, m.caps, m.routeWithdrawn, m.withdrawn)
	}
}

// route resolves where one client's queries are actually served after
// the policy's DNS-layer decision. FastRoute draws its uniform from a
// dedicated (client, day)-keyed substream, so managed runs stay
// schedule-independent and an inactive balancer leaves the assignment
// untouched. A front-end that sheds nothing at layer 0 serves the client
// whatever the uniform (u ≥ 0 ≥ f, and the heavy-hitter rule needs
// f > 0), so the draw is made only at a shedding front-end.
func (m *loadManager) route(seed uint64, clientID uint64, day int, a bgp.Assignment, queries int) topology.SiteID {
	switch m.policy {
	case load.FastRoute:
		if m.bal.ShedFraction(0, a.FrontEnd) <= 0 {
			return a.FrontEnd
		}
		var rs xrand.Stream
		rs.Reseed(xrand.DeriveSeedL2(seed, labelLoadU, clientID, uint64(day)))
		return m.bal.RouteFrom(a.Ingress, a.FrontEnd, rs.Float64(), float64(queries))
	case load.Withdraw:
		if m.routeWithdrawn[a.FrontEnd] {
			if fe := m.rehome[a.Ingress]; fe != topology.InvalidSite {
				return fe
			}
		}
	}
	return a.FrontEnd
}

// observeServed totals the day's effective served volume per front-end
// and snapshots per-site utilization. Serial, in client order. The
// returned slice is reused for the next day (DayResult ownership rules).
func (m *loadManager) observeServed(passive []logs.DayRecord) []SiteUtil {
	clear(m.served)
	for i := range passive {
		m.served[passive[i].FrontEnd] += float64(passive[i].Queries)
	}
	m.utils = m.utils[:0]
	for _, fe := range m.fes {
		su := SiteUtil{
			Site:      fe,
			Queries:   m.served[fe],
			Capacity:  m.caps[fe],
			Withdrawn: m.routeWithdrawn[fe],
		}
		if m.bal != nil {
			su.ShedFrac = m.bal.ShedFraction(0, fe)
		}
		m.utils = append(m.utils, su)
	}
	return m.utils
}
