// Package sim orchestrates the month-scale simulation that stands in for
// the paper's production datasets: it builds the world (deployment, ISPs,
// clients, LDNS mapping), walks the simulated days, and emits the two
// datasets the paper's analysis consumes — beacon measurements (active,
// §3.2.2) and passive per-day request logs (§3.2.1).
package sim

import (
	"fmt"
	"math"

	"anycastcdn/internal/beacon"
	"anycastcdn/internal/bgp"
	"anycastcdn/internal/cdn"
	"anycastcdn/internal/clients"
	"anycastcdn/internal/dns"
	"anycastcdn/internal/faults"
	"anycastcdn/internal/geo"
	"anycastcdn/internal/latency"
	"anycastcdn/internal/load"
	"anycastcdn/internal/netaddr"
	"anycastcdn/internal/topology"
	"anycastcdn/internal/xrand"
)

// Config is the top-level simulation configuration.
type Config struct {
	Seed uint64
	// Prefixes is the number of client /24s.
	Prefixes int
	// Days is the simulated study length (the paper covers April 2015,
	// starting Wednesday the 1st).
	Days int
	// QueriesPerVolume converts a client's relative volume to queries/day.
	QueriesPerVolume float64
	// BeaconSampleRate is the fraction of queries that carry the beacon
	// ("a small fraction of search response pages").
	BeaconSampleRate float64
	// MaxBeaconsPerClientDay caps beacon executions per client-day.
	MaxBeaconsPerClientDay int
	// Deployment selects a front-end density preset (cdn.Preset); empty
	// means the default 64-site deployment.
	Deployment cdn.Preset
	// Workers bounds simulation parallelism. 0 means GOMAXPROCS; Validate
	// rejects negative values. Every parallel phase — the world build's
	// client walk and each phase of the day loop — runs on one worker
	// pool (parallelFor): any non-positive count that reaches the pool
	// behaves like 0.
	Workers int
	// Scenario optionally injects deterministic fault events (front-end
	// drains, BGP flaps, LDNS outages, latency inflation) into the run;
	// see internal/faults. nil and the empty scenario both produce runs
	// byte-identical to a fault-free simulation.
	Scenario *faults.Scenario
	// LoadManager optionally activates load-aware anycast in the day
	// loop: per-front-end capacities are derived from the fault-free
	// scheduled load (headroom over each front-end's peak day), each
	// day's offered load drives the configured
	// overload policy (static observation, FastRoute spillover, or naive
	// withdrawal), and per-site utilization surfaces in DayResult and
	// Result. nil deactivates the subsystem entirely; see internal/load.
	LoadManager *load.ManagerConfig
}

// Validate checks the configuration for values that would otherwise flow
// silently into a nonsensical world build or day loop.
func (cfg Config) Validate() error {
	// Every comparison below is false for NaN, so non-finite floats are
	// rejected first.
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"queries-per-volume", cfg.QueriesPerVolume},
		{"beacon sample rate", cfg.BeaconSampleRate},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("sim: non-finite %s %v", f.name, f.v)
		}
	}
	if cfg.Prefixes <= 0 {
		return fmt.Errorf("sim: non-positive prefix count %d", cfg.Prefixes)
	}
	if cfg.Prefixes > netaddr.ClientPrefixes {
		return fmt.Errorf("sim: prefix count %d above %d, the client /24s of the address pool",
			cfg.Prefixes, netaddr.ClientPrefixes)
	}
	if cfg.Days <= 0 {
		return fmt.Errorf("sim: non-positive day count %d", cfg.Days)
	}
	if cfg.Workers < 0 {
		return fmt.Errorf("sim: negative worker count %d (use 0 for GOMAXPROCS)", cfg.Workers)
	}
	if cfg.QueriesPerVolume < 0 {
		return fmt.Errorf("sim: negative queries-per-volume %v", cfg.QueriesPerVolume)
	}
	// Past this bound the largest count a client-day can draw no longer
	// fits an int, and converting it gives an implementation-defined
	// (on amd64, negative) count.
	if limit := clients.MaxQueriesPerVolume(clients.DefaultConfig(0, 0).VolumeSigma); cfg.QueriesPerVolume > limit {
		return fmt.Errorf("sim: queries-per-volume %v above %.2f, where the largest daily count a client can draw overflows an int",
			cfg.QueriesPerVolume, limit)
	}
	if cfg.BeaconSampleRate < 0 || cfg.BeaconSampleRate > 1 {
		return fmt.Errorf("sim: beacon sample rate %v outside [0, 1]", cfg.BeaconSampleRate)
	}
	if cfg.MaxBeaconsPerClientDay < 0 {
		return fmt.Errorf("sim: negative beacon cap %d", cfg.MaxBeaconsPerClientDay)
	}
	if cfg.Scenario != nil {
		if err := cfg.Scenario.Validate(); err != nil {
			return err
		}
		for i, e := range cfg.Scenario.Events {
			if e.Day >= cfg.Days {
				return fmt.Errorf("sim: scenario event %d (%s %s) starts on day %d but the simulation ends after day %d",
					i, e.Kind, e.Target, e.Day, cfg.Days-1)
			}
		}
	}
	if cfg.LoadManager != nil {
		if err := cfg.LoadManager.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// DefaultConfig returns the experiment-scale configuration: large enough
// for stable distributions, small enough to run in seconds.
func DefaultConfig(seed uint64) Config {
	return Config{
		Seed:                   seed,
		Prefixes:               8000,
		Days:                   30,
		QueriesPerVolume:       22,
		BeaconSampleRate:       0.10,
		MaxBeaconsPerClientDay: 100,
	}
}

// World is the built simulation environment.
type World struct {
	Metros     []geo.Metro
	Deployment *cdn.Deployment
	ISPs       *topology.ISPModel
	Population *clients.Population
	Mapping    *dns.Mapping
	Router     *bgp.Router
	Authority  *dns.Authority
	Latency    *latency.Model
	Executor   *beacon.Executor
	// Faults is the injector compiled from Config.Scenario (nil when the
	// scenario is nil); Executor holds the same injector.
	Faults *faults.Injector
}

// BuildWorld constructs the environment for a config.
func BuildWorld(cfg Config) (*World, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return buildWorldRange(cfg, 0, cfg.Prefixes)
}

// BuildShardWorld constructs the environment for one shard of a
// distributed run: identical to BuildWorld in every shared component, but
// holding only the clients (and client→LDNS assignments) of [lo, hi) —
// the change that keeps a worker's resident set proportional to its shard
// rather than the whole population. The full population is still walked:
// the generator's sequential streams must advance past every client, and
// the LDNS resolver catalog is interned in full-population order so
// resolver IDs — which key the authority's geolocation draws — match the
// single-process build exactly. A client outside [lo, hi) costs only
// those streams and the draws its resolver key reads: its ISP, and its
// position only when a public resolver serves it. StreamShard over the
// result, with the same [lo, hi), reproduces the corresponding slice of
// StreamWorld record for record.
func BuildShardWorld(cfg Config, lo, hi int) (*World, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if lo < 0 || hi <= lo || hi > cfg.Prefixes {
		return nil, fmt.Errorf("sim: shard world range [%d, %d) outside population of %d", lo, hi, cfg.Prefixes)
	}
	return buildWorldRange(cfg, lo, hi)
}

// buildWorldRange is the shared builder behind BuildWorld (the full
// range) and BuildShardWorld. cfg must already be validated.
func buildWorldRange(cfg Config, lo, hi int) (*World, error) {
	w, err := buildComponents(cfg)
	if err != nil {
		return nil, err
	}
	gen, err := clients.NewGenerator(w.Metros, w.ISPs,
		clients.DefaultConfig(xrand.DeriveSeed(cfg.Seed, "clients"), cfg.Prefixes), lo, hi)
	if err != nil {
		return nil, fmt.Errorf("sim: generating clients: %w", err)
	}
	rm, err := dns.NewRangeMapper(w.ISPs, w.Metros,
		dns.DefaultMapperConfig(xrand.DeriveSeed(cfg.Seed, "ldns")), uint64(lo), uint64(hi))
	if err != nil {
		return nil, fmt.Errorf("sim: mapping LDNS: %w", err)
	}
	// One walk builds both range-limited structures, a block at a time:
	// the generator's sequential pass, then every client's draws and
	// resolver key on the worker pool, then the block's keys interned in
	// ID order. Every draw of the parallel step comes from the client's
	// own substream, so the schedule changes nothing.
	keys := make([]dns.ResolverKey, min(clients.BlockSize, cfg.Prefixes))
	for {
		blk, err := gen.Next()
		if err != nil {
			return nil, fmt.Errorf("sim: generating clients: %w", err)
		}
		if len(blk) == 0 {
			break
		}
		parallelFor(len(blk), cfg.Workers, func(_, j int) {
			gen.Draw(&blk[j])
			keys[j] = rm.Key(&blk[j])
		})
		for j := range blk {
			rm.Intern(blk[j].ID, keys[j])
		}
	}
	w.Population = gen.Population()
	w.Mapping = rm.Mapping()
	if cfg.Scenario != nil {
		if w.Faults, err = faults.NewInjector(*cfg.Scenario, w.Deployment, w.Mapping, w.Metros); err != nil {
			return nil, fmt.Errorf("sim: compiling fault scenario: %w", err)
		}
	}
	w.Executor = &beacon.Executor{
		Router:    w.Router,
		Authority: w.Authority,
		Latency:   w.Latency,
		Mapping:   w.Mapping,
		Faults:    w.Faults,
		Seed:      xrand.DeriveSeed(cfg.Seed, "beacon"),
	}
	return w, nil
}

// BuildAnalysisWorld constructs the population-free slice of the world:
// deployment, ISPs, router, latency model, geolocation database and
// authority — everything the experiment aggregators and report renderers
// consult, and nothing that scales with Prefixes. The distributed
// coordinator uses it to merge and render shard partials without paying
// for (or holding) a multi-million-client population; the components come
// from the same builder BuildWorld uses, so every shared component is
// identical to the workers' full builds. Population, Mapping, Executor
// and Faults are nil: the returned world cannot simulate days.
func BuildAnalysisWorld(cfg Config) (*World, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return buildComponents(cfg)
}

// buildComponents builds every world component that does not depend on
// the client population, each from its own sub-seed of cfg.Seed. cfg
// must already be validated.
func buildComponents(cfg Config) (*World, error) {
	dep, err := cdn.BuildPreset(cfg.Deployment)
	if err != nil {
		return nil, fmt.Errorf("sim: building deployment: %w", err)
	}
	metros := geo.World()

	isps := topology.BuildISPs(dep.Backbone, metros,
		topology.DefaultISPModelConfig(xrand.DeriveSeed(cfg.Seed, "isps")))

	router := bgp.NewRouter(dep.Backbone, isps, xrand.DeriveSeed(cfg.Seed, "bgp"), bgp.DefaultConfig())

	model := latency.NewModel(xrand.DeriveSeed(cfg.Seed, "latency"), latency.DefaultConfig())

	geoDB := geo.NewDB(xrand.DeriveSeed(cfg.Seed, "geodb"),
		geo.MedianErrorKm, geo.GrossErrorRate, geo.GrossErrorKm)
	auth := dns.NewAuthority(dep, geoDB)

	return &World{
		Metros:     metros,
		Deployment: dep,
		ISPs:       isps,
		Router:     router,
		Authority:  auth,
		Latency:    model,
	}, nil
}

// Result is the output of a simulation run.
type Result struct {
	Cfg   Config
	World *World
	// Beacons holds the active measurements, indexed by day.
	Beacons [][]beacon.Measurement
	// Passive is the production log: Passive[d] is day d's records in
	// client order.
	Passive PassiveLog
	// Assignments[i] is client i's per-day effective anycast assignment
	// (after any fault rewrite).
	Assignments [][]bgp.Assignment
	// Utilization[d] is day d's per-front-end load picture; non-nil only
	// when Cfg.LoadManager is active.
	Utilization [][]SiteUtil
}

// PassiveLog is a run's passive log, day-major: one row per client per
// day, as the stream emitted them.
type PassiveLog [][]DayRecord

// Len returns the number of records.
func (l PassiveLog) Len() int {
	n := 0
	for _, day := range l {
		n += len(day)
	}
	return n
}

// Run builds the world and simulates cfg.Days days.
func Run(cfg Config) (*Result, error) {
	w, err := BuildWorld(cfg)
	if err != nil {
		return nil, err
	}
	return RunWorld(cfg, w)
}

// Per-run substream labels, hashed once (see xrand.Label).
var (
	labelTraffic     = xrand.NewLabel("traffic")
	labelQID         = xrand.NewLabel("qid")
	labelBeaconCount = xrand.NewLabel("beacon-count")
	labelLoadU       = xrand.NewLabel("load-u")
)

// RunWorld simulates over an already-built world and materializes the
// stream into a Result: it runs StreamWorld's day loop, so a batch run
// and a streaming run agree record for record by construction. Each
// streamed day lands in its final position: Passive[d] is day d's
// records in client order, Assignments[i][d] is client i's effective
// assignment on day d, and Beacons[d] is day d's measurements in stream
// order.
func RunWorld(cfg Config, w *World) (*Result, error) {
	if w.Population.Base != 0 {
		return nil, fmt.Errorf("sim: batch run over a shard world (clients start at %d); use StreamShard", w.Population.Base)
	}
	n := len(w.Population.Clients)
	days := cfg.Days
	res := &Result{
		Cfg:         cfg,
		World:       w,
		Beacons:     make([][]beacon.Measurement, days),
		Passive:     make(PassiveLog, days),
		Assignments: make([][]bgp.Assignment, n),
	}
	if cfg.LoadManager != nil {
		res.Utilization = make([][]SiteUtil, days)
	}
	rows := make([]DayRecord, n*days)
	for d := range res.Passive {
		res.Passive[d] = rows[d*n : (d+1)*n : (d+1)*n]
	}
	flat := make([]bgp.Assignment, n*days)
	for i := range res.Assignments {
		res.Assignments[i] = flat[i*days : (i+1)*days : (i+1)*days]
	}
	err := streamRange(cfg, w, ShardOpts{Hi: n}, true, func(d DayResult) error {
		day := d.Day
		copy(res.Passive[day], d.Passive)
		for i, a := range d.Assignments {
			res.Assignments[i][day] = a
		}
		if len(d.Beacons) > 0 {
			res.Beacons[day] = d.Beacons
		}
		if res.Utilization != nil {
			res.Utilization[day] = append([]SiteUtil(nil), d.Utilization...)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// beaconCount draws how many of a client-day's queries carry the beacon,
// from its own (client, day) substream: the count is a pure function of
// the config, so it perturbs no other stream and each day's beacon
// offsets are exact before any beacon executes.
func beaconCount(cfg Config, clientID uint64, day, queries int) int {
	expect := float64(queries) * cfg.BeaconSampleRate
	nb := int(expect)
	// Float64 is never below 0, so a whole expectation rounds the same
	// without the draw; a beacon-free run never makes it.
	if frac := expect - float64(nb); frac != 0 {
		var rs xrand.Stream
		rs.Reseed(xrand.DeriveSeedL2(cfg.Seed, labelBeaconCount, clientID, uint64(day)))
		if rs.Float64() < frac {
			nb++
		}
	}
	if cfg.MaxBeaconsPerClientDay > 0 && nb > cfg.MaxBeaconsPerClientDay {
		nb = cfg.MaxBeaconsPerClientDay
	}
	return nb
}

// Volumes returns the client→query-volume map used for weighted analyses.
func (r *Result) Volumes() map[uint64]float64 {
	out := make(map[uint64]float64, len(r.World.Population.Clients))
	for _, c := range r.World.Population.Clients {
		out[c.ID] = c.Volume
	}
	return out
}

// TotalBeacons returns the number of beacon executions in the run.
func (r *Result) TotalBeacons() int {
	n := 0
	for _, day := range r.Beacons {
		n += len(day)
	}
	return n
}
