package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"anycastcdn/internal/distsim"
	"anycastcdn/internal/experiments"
	"anycastcdn/internal/faults"
	"anycastcdn/internal/load"
	"anycastcdn/internal/sim"
)

// workload is one input set the benchmark runs. Each run of it happens in
// a fresh child process (see child in main.go).
type workload struct {
	name string
	// config builds the simulation input from the benchmark seed; tiny
	// selects the sizes the benchmark's own tests use.
	config func(seed uint64, tiny bool) (sim.Config, error)
	// setupReps is how many times a run repeats its set-up (see setUp).
	setupReps int
	// run performs the timed part of one run.
	run func(ctx context.Context, env runEnv, cfg sim.Config) (*outcome, error)
	// reference, when set, computes the digests every run must reproduce,
	// once per invocation and outside the timed runs.
	reference func(ctx context.Context, env runEnv, cfg sim.Config) (*outcome, error)
}

// runEnv is what a run needs besides its config.
type runEnv struct {
	tr        *tracer // nil for untraced runs
	setupReps int
	exe       string // this binary, re-executed as distsim workers
}

// outcome is what a run produced, for the output check and the metrics.
type outcome struct {
	// setup is the mean set-up time; the run's wall time is setup plus
	// the time from setupDone until the run returns.
	setup            time.Duration
	setupDone        time.Time
	records, beacons int64
	reports          string           // every rendered report, concatenated
	util             [][]sim.SiteUtil // per-day load picture, managed runs only
	// peakRSS is the largest resident set of any process of the run; 0
	// means this process's own peak, read after the run.
	peakRSS int64
	// layers holds per-layer values that are not span timings.
	layers map[string]float64
	// probe, if set, times layer calls over the run's outputs after the
	// timed part ends (traced runs only).
	probe func(tr *tracer) error
}

// The set-up repetitions give each workload about a second of set-up per
// run. On a shared machine a single-threaded build runs fast or ~1.5x
// slower for stretches of a tenth of a second or more, so one ~8 ms build
// of the beacon-figures world, or even the median of a few dozen, lands
// in one mode or the other; the mean over a second does not.
var workloads = []workload{
	{name: "passive-stream", config: passiveConfig, setupReps: 3, run: runPassiveStream},
	{name: "beacon-figures", config: beaconConfig, setupReps: 101, run: runBeaconFigures},
	{name: "surge-fleet", config: fleetConfig, setupReps: 5, run: runSurgeFleet, reference: runFleetReference},
}

// setUp performs a run's set-up env.setupReps times, each after a
// collection that frees the previous repetition's state, and keeps the
// last repetition's state. The mean duration is the run's setup_s.
func setUp[T any](env runEnv, fn func() (T, error)) (v T, mean time.Duration, done time.Time, err error) {
	var total time.Duration
	for range env.setupReps {
		var zero T
		v = zero
		runtime.GC()
		start := time.Now()
		if v, err = fn(); err != nil {
			return v, 0, done, err
		}
		done = time.Now()
		total += done.Sub(start)
	}
	return v, total / time.Duration(env.setupReps), done, nil
}

func findWorkload(name string) (*workload, error) {
	var names []string
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
		names = append(names, workloads[i].name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// fleetShards is the surge-fleet worker count: one per core of the
// two-core machines the benchmark was tuned on, each single-threaded.
const fleetShards = 2

// passiveConfig is the paper-scale passive path: many /24s, a month, no
// beacons, every core.
func passiveConfig(seed uint64, tiny bool) (sim.Config, error) {
	cfg := sim.DefaultConfig(seed)
	cfg.Prefixes, cfg.Days = 200_000, 30
	if tiny {
		cfg.Prefixes, cfg.Days = 400, 4
	}
	cfg.BeaconSampleRate = 0
	cfg.Workers = runtime.NumCPU()
	return cfg, nil
}

// beaconConfig is the cmd/repro path: a small population at the default
// 10% beacon rate, where beacons and the figures built on them dominate.
func beaconConfig(seed uint64, tiny bool) (sim.Config, error) {
	cfg := sim.DefaultConfig(seed)
	cfg.Prefixes, cfg.Days = 2_500, 30
	if tiny {
		cfg.Prefixes, cfg.Days = 150, 4
	}
	cfg.Workers = runtime.NumCPU()
	return cfg, nil
}

// fleetConfig is a FastRoute-managed run under a South American flash
// crowd, sharded over fleetShards single-threaded worker processes.
func fleetConfig(seed uint64, tiny bool) (sim.Config, error) {
	cfg := sim.DefaultConfig(seed)
	cfg.Prefixes, cfg.Days = 100_000, 30
	surge := "surge south-america day=2 for=5 qps=15"
	if tiny {
		cfg.Prefixes, cfg.Days = 400, 4
		surge = "surge south-america day=1 for=2 qps=15"
	}
	sc, err := faults.ParseScenario(surge)
	if err != nil {
		return cfg, err
	}
	cfg.Scenario = &sc
	cfg.LoadManager = &load.ManagerConfig{Policy: load.FastRoute}
	cfg.BeaconSampleRate = 0
	cfg.Workers = 1
	return cfg, nil
}

// dayFn is one consumer of each streamed day, timed as its own span.
type dayFn struct {
	name string
	fn   func(sim.DayResult) error
}

// stream runs sim.StreamWorld, feeding every day to fns in order. Traced,
// it records the simulated days themselves as "sim.day" spans: day 0 from
// the stream call to the first callback, later days from one callback's
// return to the next callback.
func stream(tr *tracer, cfg sim.Config, w *sim.World, fns ...dayFn) (records, beacons int64, err error) {
	s := tr.begin("sim.StreamWorld")
	last := tr.mark()
	err = sim.StreamWorld(cfg, w, func(d sim.DayResult) error {
		tr.add("sim.day", last, tr.mark())
		records += int64(len(d.Passive))
		beacons += int64(len(d.Beacons))
		for _, f := range fns {
			sp := tr.begin(f.name)
			err := f.fn(d)
			tr.end(sp)
			if err != nil {
				return err
			}
		}
		last = tr.mark()
		return nil
	})
	tr.end(s)
	return records, beacons, err
}

// namedReport is one report the workload renders, timed as its own span.
type namedReport struct {
	span string
	fn   func() experiments.Report
}

// render calls every report function in order and concatenates the
// rendered text, the way cmd/anycastsim writes reports.txt.
func render(tr *tracer, reports []namedReport) string {
	r := tr.begin("experiments.render")
	defer tr.end(r)
	var sb strings.Builder
	for _, nr := range reports {
		s := tr.begin(nr.span)
		sb.WriteString(nr.fn().Render())
		sb.WriteByte('\n')
		tr.end(s)
	}
	return sb.String()
}

// streamReports are the six streaming reports cmd/anycastsim renders.
func streamReports(ss *experiments.StreamSuite) []namedReport {
	return []namedReport{
		{"experiments.Figure4", ss.Figure4},
		{"experiments.Figure7", ss.Figure7},
		{"experiments.Figure8", ss.Figure8},
		{"experiments.Catchments", func() experiments.Report { return ss.Catchments(10) }},
		{"experiments.TCPDisruption", ss.TCPDisruption},
		{"experiments.LoadShedding", func() experiments.Report { return ss.LoadShedding(4) }},
	}
}

// suiteReports are the reports Suite.All renders, in its order, one span
// each. TestSuiteReportsMatchAll pins the list to All.
func suiteReports(s *experiments.Suite) []namedReport {
	return []namedReport{
		{"experiments.Figure1", s.Figure1},
		{"experiments.CDNSizeTable", experiments.CDNSizeTable},
		{"experiments.Figure2", s.Figure2},
		{"experiments.Figure3", s.Figure3},
		{"experiments.Figure4", s.Figure4},
		{"experiments.Figure5", s.Figure5},
		{"experiments.Figure6", s.Figure6},
		{"experiments.Figure7", s.Figure7},
		{"experiments.Figure8", s.Figure8},
		{"experiments.Figure9", s.Figure9},
	}
}

func buildWorld(tr *tracer, cfg sim.Config) (*sim.World, error) {
	b := tr.begin("sim.BuildWorld")
	defer tr.end(b)
	return sim.BuildWorld(cfg)
}

// streamSetup is the set-up of a streaming run: the world and the suite
// observing it.
type streamSetup struct {
	w  *sim.World
	ss *experiments.StreamSuite
}

func runPassiveStream(_ context.Context, env runEnv, cfg sim.Config) (*outcome, error) {
	tr := env.tr
	o := &outcome{}
	s, setup, done, err := setUp(env, func() (streamSetup, error) {
		w, err := buildWorld(tr, cfg)
		if err != nil {
			return streamSetup{}, err
		}
		b := tr.begin("experiments.NewStreamSuite")
		defer tr.end(b)
		return streamSetup{w, experiments.NewStreamSuite(cfg, w)}, nil
	})
	if err != nil {
		return nil, err
	}
	o.setup, o.setupDone = setup, done
	w, ss := s.w, s.ss
	o.records, o.beacons, err = stream(tr, cfg, w, dayFn{"experiments.StreamSuite.Observe", ss.Observe})
	if err != nil {
		return nil, err
	}
	o.reports = render(tr, streamReports(ss))
	return o, nil
}

func runBeaconFigures(_ context.Context, env runEnv, cfg sim.Config) (*outcome, error) {
	tr := env.tr
	o := &outcome{}
	w, setup, done, err := setUp(env, func() (*sim.World, error) { return buildWorld(tr, cfg) })
	if err != nil {
		return nil, err
	}
	o.setup, o.setupDone = setup, done
	r := tr.begin("sim.RunWorld")
	res, err := sim.RunWorld(cfg, w)
	tr.end(r)
	if err != nil {
		return nil, err
	}
	o.records, o.beacons = int64(res.Passive.Len()), int64(res.TotalBeacons())
	s := tr.begin("experiments.NewSuite")
	suite := experiments.NewSuite(res)
	tr.end(s)
	o.reports = render(tr, suiteReports(suite))
	o.probe = func(tr *tracer) error {
		probeCore(tr, res)
		return probeBeacons(tr, res)
	}
	return o, nil
}

// largestShard is the biggest client range distsim gives a worker of an
// n-prefix run split fleetShards ways.
func largestShard(n int) (lo, hi int) {
	for i := 0; i < fleetShards; i++ {
		l, h := i*n/fleetShards, (i+1)*n/fleetShards
		if h-l > hi-lo {
			lo, hi = l, h
		}
	}
	return lo, hi
}

func runSurgeFleet(ctx context.Context, env runEnv, cfg sim.Config) (*outcome, error) {
	tr := env.tr
	// Set-up: the world build each worker pays inside distsim.Run, timed
	// here for the larger shard. The world is dropped and the peak-RSS
	// mark reset, so the coordinator's peak covers only the fleet run.
	lo, hi := largestShard(cfg.Prefixes)
	_, setup, done, err := setUp(env, func() (*sim.World, error) {
		b := tr.begin("sim.BuildShardWorld")
		defer tr.end(b)
		return sim.BuildShardWorld(cfg, lo, hi)
	})
	if err != nil {
		return nil, err
	}
	o := &outcome{setup: setup, setupDone: done}
	debug.FreeOSMemory()
	resetPeakRSS()

	d := tr.begin("distsim.Run")
	res, err := distsim.Run(ctx, cfg, distsim.Options{Shards: fleetShards, Argv: []string{env.exe, "-worker"}})
	tr.end(d)
	if err != nil {
		return nil, err
	}
	o.records, o.beacons, o.util = res.Records, res.Beacons, res.Utilization
	o.reports = render(tr, streamReports(res.Suite))

	coord := peakRSS()
	var worker int64
	for _, ws := range res.Workers {
		worker = max(worker, ws.PeakRSSBytes)
	}
	o.peakRSS = max(coord, worker)
	o.layers = map[string]float64{
		"distsim.worker_peak_rss_mib": mib(worker),
		"distsim.coord_peak_rss_mib":  mib(coord),
	}
	return o, nil
}

// runFleetReference is the single-process StreamWorld + StreamSuite run of
// the surge-fleet config whose reports and utilization the fleet's merged
// ones must equal. Traced, it also times the shard seam on the same
// stream — ShardObserver.AppendDay encoding each day as one full-range
// frame and MergeShardDay folding it into a second suite, whose reports
// must equal the first's — and the capacity derivation.
func runFleetReference(_ context.Context, env runEnv, cfg sim.Config) (*outcome, error) {
	tr := env.tr
	w, err := buildWorld(tr, cfg)
	if err != nil {
		return nil, err
	}
	ss := experiments.NewStreamSuite(cfg, w)
	o := &outcome{}
	fns := []dayFn{
		{"experiments.StreamSuite.Observe", ss.Observe},
		{"bench.collectUtilization", func(d sim.DayResult) error {
			o.util = append(o.util, append([]sim.SiteUtil(nil), d.Utilization...))
			return nil
		}},
	}
	var merged *experiments.StreamSuite
	var frameBytes int64
	if tr != nil {
		obs, err := experiments.NewShardObserver(cfg, w, 0, cfg.Prefixes)
		if err != nil {
			return nil, err
		}
		merged = experiments.NewStreamSuite(cfg, w)
		var frame []byte
		fns = append(fns,
			dayFn{"experiments.ShardObserver.AppendDay", func(d sim.DayResult) error {
				frame = obs.AppendDay(d, frame[:0])
				frameBytes += int64(len(frame))
				return nil
			}},
			dayFn{"experiments.StreamSuite.MergeShardDay", func(d sim.DayResult) error {
				return merged.MergeShardDay(d.Day, 0, cfg.Prefixes, frame)
			}})
	}
	o.records, o.beacons, err = stream(tr, cfg, w, fns...)
	if err != nil {
		return nil, err
	}
	o.reports = render(tr, streamReports(ss))
	if merged != nil {
		if render(nil, streamReports(merged)) != o.reports {
			return nil, fmt.Errorf("reports merged from full-range shard frames differ from the observed ones")
		}
		o.layers = map[string]float64{"experiments.frame_bytes_per_day": float64(frameBytes) / float64(cfg.Days)}
		o.probe = func(tr *tracer) error { return probeCaps(tr, cfg, w) }
	}
	return o, nil
}

// digest is the hex SHA-256 of s.
func digest(s string) string {
	h := sha256.Sum256([]byte(s))
	return hex.EncodeToString(h[:])
}

// utilDigest hashes a run's per-day load picture with every float at
// full precision, so any change to a model output changes the digest.
func utilDigest(util [][]sim.SiteUtil) string {
	var sb strings.Builder
	for day, units := range util {
		for _, u := range units {
			fmt.Fprintf(&sb, "%d,%d,%s,%s,%s,%t\n", day, u.Site,
				strconv.FormatFloat(u.Queries, 'g', -1, 64),
				strconv.FormatFloat(u.Capacity, 'g', -1, 64),
				strconv.FormatFloat(u.ShedFrac, 'g', -1, 64), u.Withdrawn)
		}
	}
	return digest(sb.String())
}

// loadLayers summarises the per-day load picture: site-days the
// controller shed from or ran over capacity, the largest shed fraction,
// and the largest served-to-capacity ratio.
func loadLayers(util [][]sim.SiteUtil) map[string]float64 {
	var over, shed, peak float64
	for _, units := range util {
		for _, u := range units {
			if u.ShedFrac > 0 || u.Utilization() > 1 {
				over++
			}
			shed = max(shed, u.ShedFrac)
			peak = max(peak, u.Utilization())
		}
	}
	return map[string]float64{
		"load.overloaded_site_days": over,
		"load.shed_frac":            shed,
		"load.peak_util":            peak,
	}
}

func mib(bytes int64) float64 { return float64(bytes) / (1 << 20) }
