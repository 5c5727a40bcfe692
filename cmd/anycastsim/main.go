// Command anycastsim runs the anycast CDN simulation and exports its
// datasets — beacon measurements and passive logs — as CSV (the same two
// datasets §3.2 of the paper collects), so external tooling can rerun the
// analysis.
//
// The simulation streams day by day, so memory stays bounded even at
// paper-like scale (hundreds of thousands of client /24s):
//
//	anycastsim -prefixes 200000 -days 30 -out data
//
// Writes beacons.csv, passive.csv, clients.csv and frontends.csv to the
// output directory.
//
// A fault scenario can be injected with -scenario, given either inline
// (semicolon-separated events) or as a path to a scenario file:
//
//	anycastsim -days 12 -scenario 'drain paris day=3 for=2; inflate europe day=5 ms=40'
//	anycastsim -days 12 -scenario maintenance.scenario
//
// Load-aware anycast (FastRoute-style DNS-layer spillover, or the naive
// withdrawal strategy it replaces) activates with -loadpolicy; the run
// then also writes utilization.csv with each front-end's daily load
// picture:
//
//	anycastsim -days 12 -scenario 'surge south-america day=2 for=5 qps=15' -loadpolicy fastroute
//
// Profiling the hot path (inspect with `go tool pprof`):
//
//	anycastsim -prefixes 20000 -days 12 -cpuprofile cpu.pprof -memprofile mem.pprof
//
// Distributed mode shards the client population across a fleet of worker
// processes (re-execs of this binary with -worker) and merges their
// day frames into the same reports a single-process -reports run
// writes, byte for byte:
//
//	anycastsim -prefixes 4000000 -days 30 -distribute 4 -out data
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"anycastcdn/internal/distsim"
	"anycastcdn/internal/experiments"
	"anycastcdn/internal/faults"
	"anycastcdn/internal/load"
	"anycastcdn/internal/sim"
)

func main() {
	var (
		seed       = flag.Uint64("seed", 1, "simulation seed")
		prefixes   = flag.Int("prefixes", 0, "client /24 count (0 = default)")
		days       = flag.Int("days", 0, "simulated days (0 = default)")
		out        = flag.String("out", ".", "output directory")
		scenario   = flag.String("scenario", "", "fault scenario: inline event text or a file path")
		loadpolicy = flag.String("loadpolicy", "off", "load-aware anycast policy: off, static, fastroute or withdraw")
		reports    = flag.Bool("reports", false, "aggregate the passive-log experiment reports online and write reports.txt")
		beaconrate = flag.Float64("beaconrate", -1, "beacon sample rate override (0 disables beacons; < 0 = default)")
		distribute = flag.Int("distribute", 0, "shard the run across this many worker processes and write the merged reports")
		worker     = flag.Bool("worker", false, "serve as a distributed worker on inherited fd 3 (internal; used by -distribute)")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file after the run")
	)
	flag.Parse()
	if *worker {
		if err := distsim.ServeFD(context.Background()); err != nil {
			fmt.Fprintln(os.Stderr, "anycastsim worker:", err)
			os.Exit(1)
		}
		return
	}
	if *distribute > 0 {
		if err := runDistributed(*seed, *prefixes, *days, *out, *scenario, *loadpolicy, *beaconrate, *distribute); err != nil {
			fmt.Fprintln(os.Stderr, "anycastsim:", err)
			os.Exit(1)
		}
		return
	}
	if err := runProfiled(*seed, *prefixes, *days, *out, *scenario, *loadpolicy, *reports, *beaconrate, *cpuprofile, *memprofile); err != nil {
		fmt.Fprintln(os.Stderr, "anycastsim:", err)
		os.Exit(1)
	}
}

// runProfiled wraps run with the optional pprof captures, so profile
// teardown happens on the error paths too.
func runProfiled(seed uint64, prefixes, days int, out, scenario, loadpolicy string, reports bool, beaconrate float64, cpuprofile, memprofile string) error {
	if cpuprofile != "" {
		f, err := os.Create(cpuprofile)
		if err != nil {
			return fmt.Errorf("creating CPU profile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			_ = f.Close()
			return fmt.Errorf("starting CPU profile: %w", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "anycastsim: closing CPU profile:", err)
			}
		}()
	}
	err := run(seed, prefixes, days, out, scenario, loadpolicy, reports, beaconrate)
	if memprofile != "" {
		if merr := writeHeapProfile(memprofile); err == nil {
			err = merr
		}
	}
	return err
}

// writeHeapProfile snapshots live-heap allocations after a GC, matching
// what `go test -memprofile` reports.
func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("creating heap profile: %w", err)
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		_ = f.Close()
		return fmt.Errorf("writing heap profile: %w", err)
	}
	return f.Close()
}

// loadScenario interprets the -scenario value: anything containing an
// event separator, option syntax, or a comment marker is inline text
// (every event carries "day=", so only a bare filename lacks all of
// them), otherwise it is read as a file.
func loadScenario(arg string) (*faults.Scenario, error) {
	if arg == "" {
		return nil, nil
	}
	text := arg
	if !strings.ContainsAny(arg, ";=#\n") {
		b, err := os.ReadFile(arg)
		if err != nil {
			return nil, fmt.Errorf("reading scenario file: %w", err)
		}
		text = string(b)
	}
	sc, err := faults.ParseScenario(text)
	if err != nil {
		return nil, err
	}
	return &sc, nil
}

// csvFile couples a buffered writer with its file for clean teardown.
type csvFile struct {
	f *os.File
	w *bufio.Writer
}

func createCSV(dir, name, header string) (*csvFile, error) {
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return nil, err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	if _, err := fmt.Fprintln(w, header); err != nil {
		_ = f.Close()
		return nil, err
	}
	return &csvFile{f: f, w: w}, nil
}

func (c *csvFile) close() error {
	if err := c.w.Flush(); err != nil {
		_ = c.f.Close()
		return err
	}
	return c.f.Close()
}

// buildConfig assembles the simulation configuration from the CLI flags
// shared by the single-process and distributed modes.
func buildConfig(seed uint64, prefixes, days int, scenario, loadpolicy string, beaconrate float64) (sim.Config, error) {
	cfg := sim.DefaultConfig(seed)
	if prefixes > 0 {
		cfg.Prefixes = prefixes
	}
	if days > 0 {
		cfg.Days = days
	}
	if beaconrate >= 0 {
		// Disabling beacons (-beaconrate 0) is how paper-scale passive runs
		// avoid paying for active measurements they will not analyze.
		cfg.BeaconSampleRate = beaconrate
	}
	sc, err := loadScenario(scenario)
	if err != nil {
		return cfg, err
	}
	cfg.Scenario = sc
	if sc != nil {
		fmt.Println("scenario:", sc.Summary())
	}
	if loadpolicy != "" && loadpolicy != "off" {
		p, err := load.ParsePolicy(loadpolicy)
		if err != nil {
			return cfg, err
		}
		cfg.LoadManager = &load.ManagerConfig{Policy: p}
		fmt.Println("load policy:", p)
	}
	return cfg, nil
}

// runDistributed shards the simulation across a fleet of worker
// subprocesses and writes the merged reports (and, for managed runs, the
// fleet utilization table). The raw per-record CSVs stay with the
// workers' shards and are not collected: distributed mode is the
// analysis path for populations too large to simulate in one process.
func runDistributed(seed uint64, prefixes, days int, out, scenario, loadpolicy string, beaconrate float64, shards int) error {
	cfg, err := buildConfig(seed, prefixes, days, scenario, loadpolicy, beaconrate)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	start := time.Now()
	// A paper-scale day can take minutes of fleet compute on a contended
	// machine, and the stall deadline bounds a whole protocol step (one
	// day frame), so the CLI allows far more silence than the library
	// default before declaring a worker wedged. A crashed worker still
	// surfaces immediately via EOF.
	res, err := distsim.Run(context.Background(), cfg, distsim.Options{
		Shards:       shards,
		StallTimeout: 10 * time.Minute,
	})
	if err != nil {
		return err
	}
	fmt.Printf("simulated %d prefixes x %d days across %d workers: %d records, %d beacons in %v\n",
		cfg.Prefixes, cfg.Days, len(res.Workers), res.Records, res.Beacons,
		time.Since(start).Round(time.Millisecond))
	for _, ws := range res.Workers {
		fmt.Printf("  worker %d: clients [%d, %d), peak RSS %.1f MiB\n",
			ws.Shard, ws.Lo, ws.Hi, float64(ws.PeakRSSBytes)/(1<<20))
	}
	if err := writeReports(out, res.Suite); err != nil {
		return err
	}
	names := []string{"reports.txt"}
	if res.Utilization != nil {
		if err := writeUtilization(out, res.Suite.World, res.Utilization); err != nil {
			return err
		}
		names = append(names, "utilization.csv")
	}
	for _, name := range names {
		fmt.Println("wrote", filepath.Join(out, name))
	}
	return nil
}

func run(seed uint64, prefixes, days int, out, scenario, loadpolicy string, reports bool, beaconrate float64) error {
	cfg, err := buildConfig(seed, prefixes, days, scenario, loadpolicy, beaconrate)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	w, err := sim.BuildWorld(cfg)
	if err != nil {
		return err
	}
	var suite *experiments.StreamSuite
	if reports {
		suite = experiments.NewStreamSuite(cfg, w)
	}

	beacons, err := createCSV(out, "beacons.csv",
		"day,query_id,client_id,region,ldns,anycast_site,anycast_rtt_ms,u1_site,u1_rtt_ms,u2_site,u2_rtt_ms,u3_site,u3_rtt_ms")
	if err != nil {
		return err
	}
	passive, err := createCSV(out, "passive.csv",
		"day,client_id,front_end,switched,prev_front_end,queries")
	if err != nil {
		beacons.close()
		return err
	}

	start := time.Now()
	var nBeacons int
	var util [][]sim.SiteUtil
	err = sim.StreamWorld(cfg, w, func(d sim.DayResult) error {
		for _, m := range d.Beacons {
			nBeacons++
			_, err := fmt.Fprintf(beacons.w, "%d,%d,%d,%s,%d,%d,%.0f,%d,%.0f,%d,%.0f,%d,%.0f\n",
				d.Day, m.QueryID, m.ClientID, m.Region, m.LDNS,
				m.Anycast.Site, m.Anycast.RTTms,
				m.Unicast[0].Site, m.Unicast[0].RTTms,
				m.Unicast[1].Site, m.Unicast[1].RTTms,
				m.Unicast[2].Site, m.Unicast[2].RTTms)
			if err != nil {
				return err
			}
		}
		for _, r := range d.Passive {
			_, err := fmt.Fprintf(passive.w, "%d,%d,%d,%t,%d,%d\n",
				r.Day, r.ClientID, r.FrontEnd, r.Switched, r.PrevFrontEnd, r.Queries)
			if err != nil {
				return err
			}
		}
		if d.Utilization != nil {
			util = append(util, append([]sim.SiteUtil(nil), d.Utilization...))
		}
		if suite != nil {
			return suite.Observe(d)
		}
		return nil
	})
	if cerr := beacons.close(); err == nil {
		err = cerr
	}
	if cerr := passive.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	fmt.Printf("simulated %d prefixes x %d days: %d beacons in %v\n",
		cfg.Prefixes, cfg.Days, nBeacons, time.Since(start).Round(time.Millisecond))

	if err := writeClients(out, w); err != nil {
		return err
	}
	if err := writeFrontEnds(out, w); err != nil {
		return err
	}
	names := []string{"beacons.csv", "passive.csv", "clients.csv", "frontends.csv"}
	if cfg.LoadManager != nil {
		if err := writeUtilization(out, w, util); err != nil {
			return err
		}
		names = append(names, "utilization.csv")
	}
	if suite != nil {
		if err := writeReports(out, suite); err != nil {
			return err
		}
		names = append(names, "reports.txt")
	}
	for _, name := range names {
		fmt.Println("wrote", filepath.Join(out, name))
	}
	return nil
}

// writeReports renders the streaming suite's passive-log experiments —
// computed online during the CSV pass, so even a million-prefix month
// never holds more than one day of raw output — into reports.txt.
func writeReports(dir string, suite *experiments.StreamSuite) error {
	f, err := os.Create(filepath.Join(dir, "reports.txt"))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, r := range []experiments.Report{
		suite.Figure4(),
		suite.Figure7(),
		suite.Figure8(),
		suite.Catchments(10),
		suite.TCPDisruption(),
		suite.LoadShedding(4),
	} {
		if _, err := fmt.Fprintln(w, r.Render()); err != nil {
			_ = f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// writeUtilization writes a managed run's per-day fleet load table. Both
// modes write it here, so ci.sh's cmp of the single-process and
// distributed files compares their data, not two copies of the format.
func writeUtilization(dir string, w *sim.World, days [][]sim.SiteUtil) error {
	c, err := createCSV(dir, "utilization.csv",
		"day,site,metro,queries,capacity,utilization,shed_frac,withdrawn")
	if err != nil {
		return err
	}
	for day, units := range days {
		for _, u := range units {
			if _, err := fmt.Fprintf(c.w, "%d,%d,%s,%.0f,%.0f,%.4f,%.4f,%t\n",
				day, u.Site, w.Deployment.Backbone.Site(u.Site).Metro.Name,
				u.Queries, u.Capacity, u.Utilization(), u.ShedFrac, u.Withdrawn); err != nil {
				c.close()
				return err
			}
		}
	}
	return c.close()
}

func writeClients(dir string, w *sim.World) error {
	c, err := createCSV(dir, "clients.csv",
		"client_id,prefix,lat,lon,metro,region,country,isp,volume")
	if err != nil {
		return err
	}
	for _, cl := range w.Population.Clients {
		if _, err := fmt.Fprintf(c.w, "%d,%s,%.4f,%.4f,%s,%s,%s,%d,%.4f\n",
			cl.ID, cl.Prefix, cl.Point.Lat, cl.Point.Lon, cl.Metro, cl.Region, cl.Country, cl.ISP, cl.Volume); err != nil {
			c.close()
			return err
		}
	}
	return c.close()
}

func writeFrontEnds(dir string, w *sim.World) error {
	c, err := createCSV(dir, "frontends.csv",
		"site,metro,region,lat,lon,unicast_prefix")
	if err != nil {
		return err
	}
	for _, fe := range w.Deployment.FrontEnds {
		s := w.Deployment.Backbone.Site(fe.Site)
		if _, err := fmt.Fprintf(c.w, "%d,%s,%s,%.4f,%.4f,%s\n",
			fe.Site, s.Metro.Name, s.Metro.Region, s.Metro.Point.Lat, s.Metro.Point.Lon, fe.Unicast); err != nil {
			c.close()
			return err
		}
	}
	return c.close()
}
