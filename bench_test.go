package anycastcdn

// The benchmark harness regenerates every table and figure of the paper
// (one Benchmark per experiment; see DESIGN.md's per-experiment index) and
// measures the ablations DESIGN.md calls out. Figure benches report the
// headline quantity of their figure via b.ReportMetric so `go test
// -bench=.` doubles as a compact reproduction readout. NewSuite folds the
// shared run once, so the figure and extension benches time rendering
// from the folded state; BenchmarkNewSuite times the fold itself.

import (
	"strconv"
	"strings"
	"sync"
	"testing"

	"anycastcdn/internal/analysis"
	"anycastcdn/internal/bgp"
	"anycastcdn/internal/core"
	"anycastcdn/internal/experiments"
	"anycastcdn/internal/sim"
	"anycastcdn/internal/xrand"
)

var (
	benchOnce  sync.Once
	benchSuite *experiments.Suite
	benchErr   error
)

// benchSetup runs one moderate simulation shared by all figure benches.
func benchSetup(b *testing.B) *experiments.Suite {
	b.Helper()
	benchOnce.Do(func() {
		cfg := sim.DefaultConfig(1)
		cfg.Prefixes = 2500
		cfg.Days = 12
		res, err := sim.Run(cfg)
		if err != nil {
			benchErr = err
			return
		}
		benchSuite = experiments.NewSuite(res)
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	b.ReportAllocs()
	b.ResetTimer()
	return benchSuite
}

// headline extracts the first numeric value of a report headline whose
// name contains key.
func headline(b *testing.B, r experiments.Report, key string) float64 {
	b.Helper()
	for _, h := range r.Lines {
		if !strings.Contains(h.Name, key) {
			continue
		}
		f := strings.FieldsFunc(h.Measured, func(r rune) bool {
			return (r < '0' || r > '9') && r != '.' && r != '-'
		})
		for _, tok := range f {
			if v, err := strconv.ParseFloat(tok, 64); err == nil {
				return v
			}
		}
	}
	return 0
}

func BenchmarkFigure1(b *testing.B) {
	s := benchSetup(b)
	var r experiments.Report
	for i := 0; i < b.N; i++ {
		r = s.Figure1()
	}
	b.ReportMetric(headline(b, r, "beyond the 5th"), "median-gain-5to9-ms")
}

func BenchmarkCDNSizeTable(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := experiments.CDNSizeTable()
		if r.Table == nil {
			b.Fatal("no table")
		}
	}
}

func BenchmarkFigure2(b *testing.B) {
	s := benchSetup(b)
	var r experiments.Report
	for i := 0; i < b.N; i++ {
		r = s.Figure2()
	}
	b.ReportMetric(headline(b, r, "1st closest"), "median-1st-closest-km")
}

func BenchmarkFigure3(b *testing.B) {
	s := benchSetup(b)
	var r experiments.Report
	for i := 0; i < b.N; i++ {
		r = s.Figure3()
	}
	b.ReportMetric(headline(b, r, ">= 25 ms"), "pct-requests-25ms-slower")
}

func BenchmarkFigure4(b *testing.B) {
	s := benchSetup(b)
	var r experiments.Report
	for i := 0; i < b.N; i++ {
		r = s.Figure4()
	}
	b.ReportMetric(headline(b, r, "closest front-end"), "pct-at-closest")
}

func BenchmarkFigure5(b *testing.B) {
	s := benchSetup(b)
	var r experiments.Report
	for i := 0; i < b.N; i++ {
		r = s.Figure5()
	}
	b.ReportMetric(headline(b, r, "any unicast improvement"), "pct-improvable-daily")
}

func BenchmarkFigure6(b *testing.B) {
	s := benchSetup(b)
	var r experiments.Report
	for i := 0; i < b.N; i++ {
		r = s.Figure6()
	}
	b.ReportMetric(headline(b, r, "only one day"), "pct-poor-one-day")
}

func BenchmarkFigure7(b *testing.B) {
	s := benchSetup(b)
	var r experiments.Report
	for i := 0; i < b.N; i++ {
		r = s.Figure7()
	}
	b.ReportMetric(headline(b, r, "switched within the week"), "pct-switched-weekly")
}

func BenchmarkFigure8(b *testing.B) {
	s := benchSetup(b)
	var r experiments.Report
	for i := 0; i < b.N; i++ {
		r = s.Figure8()
	}
	b.ReportMetric(headline(b, r, "median switch distance"), "median-switch-km")
}

func BenchmarkFigure9(b *testing.B) {
	s := benchSetup(b)
	var r experiments.Report
	for i := 0; i < b.N; i++ {
		r = s.Figure9()
	}
	b.ReportMetric(headline(b, r, "EDNS-0 Median: weighted /24s improved"), "pct-weighted-improved")
}

// BenchmarkNewSuite times the analysis of the shared run: every day's
// passive log and beacons folded into the suite's state.
func BenchmarkNewSuite(b *testing.B) {
	res := benchSetup(b).Res
	for i := 0; i < b.N; i++ {
		experiments.NewSuite(res)
	}
}

// --- Ablations from DESIGN.md §5 ---

// ablationFigure9 runs Figure 9 under a predictor config and reports the
// improved/worse split.
func ablationFigure9(b *testing.B, cfg core.Config) {
	s := benchSetup(b)
	var r experiments.Report
	for i := 0; i < b.N; i++ {
		r = s.Figure9WithConfig(cfg)
	}
	b.ReportMetric(headline(b, r, "improved"), "pct-improved")
	b.ReportMetric(headline(b, r, "worse"), "pct-worse")
}

func BenchmarkAblationMetricP25(b *testing.B) {
	ablationFigure9(b, core.Config{Metric: core.MetricP25, MinMeasurements: 20})
}

func BenchmarkAblationMetricMedian(b *testing.B) {
	ablationFigure9(b, core.Config{Metric: core.MetricMedian, MinMeasurements: 20})
}

func BenchmarkAblationMetricP75(b *testing.B) {
	ablationFigure9(b, core.Config{Metric: core.MetricP75, MinMeasurements: 20})
}

func BenchmarkAblationMetricP95(b *testing.B) {
	ablationFigure9(b, core.Config{Metric: core.MetricP95, MinMeasurements: 20})
}

func BenchmarkAblationFloor5(b *testing.B) {
	ablationFigure9(b, core.Config{Metric: core.MetricP25, MinMeasurements: 5})
}

func BenchmarkAblationFloor50(b *testing.B) {
	ablationFigure9(b, core.Config{Metric: core.MetricP25, MinMeasurements: 50})
}

func BenchmarkAblationHybridMargin10(b *testing.B) {
	ablationFigure9(b, core.Config{Metric: core.MetricP25, MinMeasurements: 20, HybridMarginMs: 10})
}

func BenchmarkAblationHybridMargin25(b *testing.B) {
	ablationFigure9(b, core.Config{Metric: core.MetricP25, MinMeasurements: 20, HybridMarginMs: 25})
}

// BenchmarkAblationNoWeekendChurn turns the weekday/weekend churn
// asymmetry off and reports the weekly switched fraction (Figure 7's
// plateau disappears). sim.Config has no routing override, and nothing
// else in the world is built from the router, so the ablation swaps a
// router under the ablated calibration, with the seed the build gives
// its own, into the built world and streams the world into a suite.
func BenchmarkAblationNoWeekendChurn(b *testing.B) {
	cfg := sim.DefaultConfig(5)
	cfg.Prefixes = 1500
	cfg.Days = 7
	routing := bgp.DefaultConfig()
	routing.WeekendFactor = 1.0
	var weekly float64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w, err := sim.BuildWorld(cfg)
		if err != nil {
			b.Fatal(err)
		}
		w.Router = bgp.NewRouter(w.Deployment.Backbone, w.ISPs, xrand.DeriveSeed(cfg.Seed, "bgp"), routing)
		w.Executor.Router = w.Router
		ss := experiments.NewStreamSuite(cfg, w)
		if err := ss.Run(); err != nil {
			b.Fatal(err)
		}
		weekly = ss.Figure7().Figure.Series[0].Points[6].Y
	}
	b.ReportMetric(weekly*100, "pct-switched-weekly")
}

// --- Extension experiments ---

func BenchmarkMetricStability(b *testing.B) {
	s := benchSetup(b)
	for i := 0; i < b.N; i++ {
		if r := s.MetricStability(); r.Table == nil {
			b.Fatal("no table")
		}
	}
}

func BenchmarkHybridDeployment(b *testing.B) {
	s := benchSetup(b)
	for i := 0; i < b.N; i++ {
		if r := s.HybridDeployment(); r.Table == nil {
			b.Fatal("no table")
		}
	}
}

func BenchmarkTCPDisruption(b *testing.B) {
	s := benchSetup(b)
	for i := 0; i < b.N; i++ {
		if r := s.TCPDisruption(); r.Table == nil {
			b.Fatal("no table")
		}
	}
}

func BenchmarkLoadShedding(b *testing.B) {
	s := benchSetup(b)
	for i := 0; i < b.N; i++ {
		if r := s.LoadShedding(4); r.Table == nil {
			b.Fatal("no table")
		}
	}
}

// BenchmarkAnycastvet measures a full-repo analysis run: the shared
// type-checked load amortized once, then every analyzer in the suite
// over every package per iteration (the same work the CI gate times
// with its 60s budget). Allocations are reported so an analyzer that
// starts copying per-package state shows up here before it shows up as
// wall-clock.
func BenchmarkAnycastvet(b *testing.B) {
	pkgs, err := analysis.LoadModule(".")
	if err != nil {
		b.Fatal(err)
	}
	mod := analysis.NewModule(pkgs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		diags, _ := analysis.RunModule(mod, pkgs, analysis.Analyzers())
		if len(diags) != 0 {
			b.Fatalf("repo is not clean: %v", diags)
		}
	}
}

// BenchmarkSimulationDay measures raw simulation throughput.
func BenchmarkSimulationDay(b *testing.B) {
	cfg := sim.DefaultConfig(9)
	cfg.Prefixes = 1000
	cfg.Days = 1
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
