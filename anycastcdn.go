// Package anycastcdn is a simulation and analysis library reproducing
// "Analyzing the Performance of an Anycast CDN" (Calder et al., IMC 2015).
//
// The library has three layers:
//
//   - A synthetic Internet + CDN substrate: world geography, a CDN
//     autonomous system with dozens of front-ends, BGP-style anycast
//     routing with the real-world pathologies the paper diagnosed, client
//     populations, LDNS infrastructure, and a latency model.
//   - The paper's measurement apparatus: the JavaScript-beacon protocol
//     (four targets per execution, chosen by the authoritative DNS) and
//     passive request logs.
//   - The paper's contribution: the history-based prediction scheme that
//     drives DNS redirection for clients anycast underserves (§6), plus
//     the experiment suite that regenerates every table and figure.
//
// Quick start: build the world, stream its days through the experiment
// suite, then render a figure.
//
//	cfg := anycastcdn.DefaultConfig(1)
//	w, err := anycastcdn.BuildWorld(cfg)
//	if err != nil { ... }
//	suite := anycastcdn.NewStreamSuite(cfg, w)
//	if err := anycastcdn.StreamWorld(cfg, w, suite.Observe); err != nil { ... }
//	fmt.Println(suite.Figure3().Render())
//
// All randomness derives from Config.Seed; identical configurations
// produce byte-identical results regardless of parallelism.
package anycastcdn

import (
	"anycastcdn/internal/beacon"
	"anycastcdn/internal/bgp"
	"anycastcdn/internal/cdn"
	"anycastcdn/internal/clients"
	"anycastcdn/internal/core"
	"anycastcdn/internal/dns"
	"anycastcdn/internal/experiments"
	"anycastcdn/internal/faults"
	"anycastcdn/internal/geo"
	"anycastcdn/internal/load"
	"anycastcdn/internal/sim"
	"anycastcdn/internal/stats"
	"anycastcdn/internal/topology"
	"anycastcdn/internal/trace"
	"anycastcdn/internal/units"
)

// Simulation layer.
type (
	// Config is the top-level simulation configuration.
	Config = sim.Config
	// World is the built simulation environment.
	World = sim.World
	// Measurement is one beacon execution (four latency samples).
	Measurement = beacon.Measurement
	// Assignment is an anycast routing outcome for one client and day.
	Assignment = bgp.Assignment
	// RoutingClient is the routing-layer view of a client prefix.
	RoutingClient = bgp.Client
	// Client is one client /24 of the population.
	Client = clients.Client
	// Deployment is the CDN's front-end deployment and addressing.
	Deployment = cdn.Deployment
	// Metro is a world metro area.
	Metro = geo.Metro
	// Point is a position on Earth.
	Point = geo.Point
	// SiteID identifies a CDN site.
	SiteID = topology.SiteID
	// LDNS is a resolver of the DNS substrate.
	LDNS = dns.LDNS
	// Millis is a latency in milliseconds (see internal/units).
	Millis = units.Millis
	// Kilometers is a distance in kilometers (see internal/units).
	Kilometers = units.Kilometers
)

// Prediction layer (the paper's §6 contribution).
type (
	// Predictor builds per-group redirection decisions.
	Predictor = core.Predictor
	// PredictorConfig parameterizes the predictor.
	PredictorConfig = core.Config
	// Predictions is a trained group→target mapping.
	Predictions = core.Predictions
	// Target is a redirection choice (anycast or a front-end).
	Target = core.Target
	// Observation is one latency measurement for training/evaluation.
	Observation = core.Observation
	// Evaluation is a next-interval outcome for one client.
	Evaluation = core.Evaluation
	// Evaluator scores predictions on the following interval.
	Evaluator = core.Evaluator
	// Grouping selects ECS-prefix or LDNS aggregation.
	Grouping = core.Grouping
)

// Prediction constants re-exported from the core package.
const (
	// ByPrefix groups clients by ECS /24 prefix.
	ByPrefix = core.ByPrefix
	// ByLDNS groups clients by resolver.
	ByLDNS = core.ByLDNS
	// MetricP25 is the paper's 25th-percentile prediction metric.
	MetricP25 = core.MetricP25
	// MetricMedian is the median prediction metric.
	MetricMedian = core.MetricMedian
)

// AnycastTarget is the "stay on anycast" redirection decision.
var AnycastTarget = core.AnycastTarget

// Experiment layer.
type (
	// Report is one regenerated table or figure with paper-vs-measured
	// headlines.
	Report = experiments.Report
	// Figure is a renderable set of series.
	Figure = stats.Figure
	// Series is one line of a figure.
	Series = stats.Series
	// Tracer reconstructs traceroute-style paths for case studies.
	Tracer = trace.Tracer
	// Diagnosis classifies a client's anycast pathology.
	Diagnosis = trace.Diagnosis
)

// Fault-injection layer (internal/faults): deterministic, seed-stable
// disruption scenarios and the resilience analysis over them.
type (
	// Scenario is a typed list of timed fault events.
	Scenario = faults.Scenario
	// FaultEvent is one timed disruption (drain, flap, ldns-outage or
	// inflate).
	FaultEvent = faults.Event
	// FaultKind classifies a fault event.
	FaultKind = faults.Kind
	// FaultInjector is a scenario compiled against a built world.
	FaultInjector = faults.Injector
	// ResilienceReport quantifies a scenario against the fault-free
	// baseline: per-day catchment shift, latency deltas, recovery.
	ResilienceReport = experiments.ResilienceReport
	// EventImpact is one event's entry in a ResilienceReport.
	EventImpact = experiments.EventImpact
)

// Fault event kinds re-exported from the faults package.
const (
	// FaultDrain takes a front-end out of service.
	FaultDrain = faults.Drain
	// FaultFlap withdraws a peering site's anycast route.
	FaultFlap = faults.Flap
	// FaultLDNSOutage fails a region's ISP resolvers.
	FaultLDNSOutage = faults.LDNSOutage
	// FaultInflate adds latency to a region's paths.
	FaultInflate = faults.Inflate
	// FaultSurge multiplies a region's query volume (a flash crowd).
	FaultSurge = faults.Surge
)

// Load-aware anycast layer (internal/load): per-front-end capacities,
// the FastRoute-style distributed watermark controller with DNS-layer
// spillover to deeper rings, and the naive route-withdrawal strategy it
// replaces. Activate by setting Config.LoadManager; compare policies
// under a flash crowd with LoadManagement.
type (
	// LoadManagerConfig activates load-aware anycast in the day loop.
	LoadManagerConfig = load.ManagerConfig
	// LoadPolicy selects the overload response (static, fastroute,
	// withdraw).
	LoadPolicy = load.Policy
	// SiteUtil is one front-end's daily load picture under management.
	SiteUtil = sim.SiteUtil
	// LoadManagementReport compares the overload policies under one
	// surge scenario.
	LoadManagementReport = experiments.LoadManagementReport
	// LoadArm is one policy's outcome inside a LoadManagementReport.
	LoadArm = experiments.LoadArm
)

// Load policies re-exported from the load package.
const (
	// LoadStatic observes utilization but never redirects.
	LoadStatic = load.Static
	// LoadFastRoute sheds excess to deeper rings at the DNS layer.
	LoadFastRoute = load.FastRoute
	// LoadWithdraw withdraws overloaded routes outright (the naive
	// strategy that cascades).
	LoadWithdraw = load.Withdraw
)

// ParseLoadPolicy parses a policy name ("static", "fastroute",
// "withdraw").
func ParseLoadPolicy(s string) (LoadPolicy, error) { return load.ParsePolicy(s) }

// LoadManagement simulates cfg under sc once per overload policy and
// reports peak utilization, overload and withdrawal site-days, shed
// volume, and the latency cost of FastRoute's redirections.
func LoadManagement(cfg Config, sc Scenario) (*LoadManagementReport, error) {
	return experiments.LoadManagement(cfg, sc)
}

// ParseScenario parses the scenario text form, e.g.
// "drain paris day=3 for=2; inflate europe day=5 ms=40".
func ParseScenario(text string) (Scenario, error) { return faults.ParseScenario(text) }

// Resilience simulates cfg twice — fault-free and under sc — and reports
// catchment shift, latency deltas, and time-to-recover per event.
func Resilience(cfg Config, sc Scenario) (*ResilienceReport, error) {
	return experiments.Resilience(cfg, sc)
}

// DefaultConfig returns the experiment-scale configuration for a seed.
func DefaultConfig(seed uint64) Config { return sim.DefaultConfig(seed) }

// BuildWorld constructs the simulation environment without running it.
func BuildWorld(cfg Config) (*World, error) { return sim.BuildWorld(cfg) }

// DayResult is one streamed simulation day; its buffers are reused for
// the next day (see sim.DayResult for the ownership contract).
type DayResult = sim.DayResult

// Stream builds the world and simulates cfg.Days days of traffic,
// measurements and routing dynamics, invoking fn with each day's outputs
// and retaining only one day in memory, so paper-scale runs (millions of
// client /24s) fit.
func Stream(cfg Config, fn func(DayResult) error) error { return sim.Stream(cfg, fn) }

// StreamWorld streams over an already-built world.
func StreamWorld(cfg Config, w *World, fn func(DayResult) error) error {
	return sim.StreamWorld(cfg, w, fn)
}

// StreamSuite regenerates the paper's tables and figures online over a
// streaming run, keeping only the state the reports read.
type StreamSuite = experiments.StreamSuite

// NewStreamSuite prepares the streaming analysis over a built world; feed
// it with StreamWorld via its Observe method, or call its Run.
func NewStreamSuite(cfg Config, w *World) *StreamSuite { return experiments.NewStreamSuite(cfg, w) }

// CDNSizeTable reproduces the §4 CDN deployment comparison.
func CDNSizeTable() Report { return experiments.CDNSizeTable() }

// NewPredictor builds a §6 predictor.
func NewPredictor(cfg PredictorConfig) *Predictor { return core.NewPredictor(cfg) }

// DefaultPredictorConfig is the paper's predictor configuration:
// 25th-percentile metric, 20-measurement floor.
func DefaultPredictorConfig() PredictorConfig { return core.DefaultConfig() }

// ObservationsFromMeasurement expands one beacon measurement into its four
// predictor observations.
func ObservationsFromMeasurement(m Measurement) []Observation {
	return core.FromMeasurement(m)
}

// NewTracer builds a case-study tracer over a world.
func NewTracer(w *World) *Tracer {
	return &trace.Tracer{Router: w.Router, Latency: w.Latency}
}

// WorldMetros returns the built-in world metro catalog.
func WorldMetros() []Metro { return geo.World() }
