// Command repro regenerates the tables and figures of "Analyzing the
// Performance of an Anycast CDN" (IMC 2015) from the simulation substrate.
//
// Usage:
//
//	repro [-seed N] [-prefixes N] [-days N] [experiment ...]
//
// Experiments: fig1 fig2 fig3 fig4 fig5 fig6 fig7 fig8 fig9 cdntable all
// (default: all), plus the extensions: stability (the metric-stability
// result §6 omits), hybrid (month-long hybrid deployment), tcp (§2's
// TCP-disruption claim), loadshed (FastRoute-style shedding), and ext
// (all extensions).
//
// -export DIR additionally writes each figure as CSV plus a gnuplot
// script.
//
// The simulation streams into an experiments.StreamSuite, which folds
// each day as it is produced, so memory grows with one day's beacons and
// the per-client state of the reports, not with the month.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"anycastcdn/internal/experiments"
	"anycastcdn/internal/sim"
)

func main() {
	var (
		seed     = flag.Uint64("seed", 1, "simulation seed")
		prefixes = flag.Int("prefixes", 0, "client /24 count (0 = default)")
		days     = flag.Int("days", 0, "simulated days (0 = default)")
		quiet    = flag.Bool("q", false, "print only paper-vs-measured headlines")
		asJSON   = flag.Bool("json", false, "emit reports as JSON instead of text")
		export   = flag.String("export", "", "directory to export figure CSVs and gnuplot scripts")
	)
	flag.Parse()
	if err := run(*seed, *prefixes, *days, *quiet, *asJSON, *export, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "repro:", err)
		os.Exit(1)
	}
}

func run(seed uint64, prefixes, days int, quiet, asJSON bool, export string, wanted []string) error {
	cfg := sim.DefaultConfig(seed)
	if prefixes > 0 {
		cfg.Prefixes = prefixes
	}
	if days > 0 {
		cfg.Days = days
	}
	if len(wanted) == 0 {
		wanted = []string{"all"}
	}

	needsSim := false
	for _, w := range wanted {
		if w != "cdntable" && w != "density" {
			needsSim = true
		}
	}
	var suite *experiments.StreamSuite
	if needsSim {
		start := time.Now()
		w, err := sim.BuildWorld(cfg)
		if err != nil {
			return err
		}
		suite = experiments.NewStreamSuite(cfg, w)
		beacons := 0
		err = sim.StreamWorld(cfg, w, func(d sim.DayResult) error {
			beacons += len(d.Beacons)
			return suite.Observe(d)
		})
		if err != nil {
			return err
		}
		fmt.Printf("simulated %d client /24s over %d days: %d beacon executions in %v\n\n",
			cfg.Prefixes, cfg.Days, beacons, time.Since(start).Round(time.Millisecond))
	}

	reports, err := collect(suite, cfg, wanted)
	if err != nil {
		return err
	}
	if asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(reports); err != nil {
			return err
		}
	}
	for _, r := range reports {
		switch {
		case asJSON:
			// Already emitted above; only exports remain.
		case quiet:
			fmt.Printf("[%s]\n", r.ID)
			for _, h := range r.Lines {
				fmt.Printf("  %-52s paper: %-22s measured: %s\n", h.Name, h.Paper, h.Measured)
			}
		default:
			fmt.Println(r.Render())
		}
		if export != "" {
			path, err := experiments.ExportCSV(r, export)
			if err != nil {
				return err
			}
			fmt.Println("exported", path)
			if r.Figure != nil {
				gp, err := experiments.ExportGnuplot(r, export)
				if err != nil {
					return err
				}
				fmt.Println("exported", gp)
			}
		}
	}
	return nil
}

func collect(s *experiments.StreamSuite, cfg sim.Config, wanted []string) ([]experiments.Report, error) {
	var out []experiments.Report
	for _, w := range wanted {
		switch w {
		case "all":
			out = append(out, s.All()...)
		case "fig1":
			out = append(out, s.Figure1())
		case "fig2":
			out = append(out, s.Figure2())
		case "fig3":
			out = append(out, s.Figure3())
		case "fig4":
			out = append(out, s.Figure4())
		case "fig5":
			out = append(out, s.Figure5())
		case "fig6":
			out = append(out, s.Figure6())
		case "fig7":
			out = append(out, s.Figure7())
		case "fig8":
			out = append(out, s.Figure8())
		case "fig9":
			out = append(out, s.Figure9())
		case "cdntable":
			out = append(out, experiments.CDNSizeTable())
		case "stability":
			out = append(out, s.MetricStability())
		case "hybrid":
			out = append(out, s.HybridDeployment())
		case "tcp":
			out = append(out, s.TCPDisruption())
		case "loadshed":
			out = append(out, s.LoadShedding(4))
		case "catchment":
			out = append(out, s.Catchments(15))
		case "density":
			r, err := experiments.DeploymentDensity(cfg)
			if err != nil {
				return nil, err
			}
			out = append(out, r)
		case "ext":
			out = append(out,
				s.MetricStability(),
				s.HybridDeployment(),
				s.TCPDisruption(),
				s.LoadShedding(4),
				s.Catchments(15))
			r, err := experiments.DeploymentDensity(cfg)
			if err != nil {
				return nil, err
			}
			out = append(out, r)
		default:
			return nil, fmt.Errorf("unknown experiment %q", w)
		}
	}
	return out, nil
}
