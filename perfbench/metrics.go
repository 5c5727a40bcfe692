package main

// metric is one number the benchmark prints, as BENCHMARK.json declares it.
type metric struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
}

// endToEnd are the metrics a user of the simulator sees, printed by
// untraced runs. Failed runs are counted in the result's "failed" field
// rather than as a metric, since a healthy run reports zero of them.
var endToEnd = []metric{
	{"wall_s", "s", "lower"},
	{"setup_s", "s", "lower"},
	{"client_days_per_s", "1/s", "higher"},
	{"peak_rss_mib", "MiB", "lower"},
}

// perLayer are the traced run's numbers. A layer the workload never calls
// reads 0 (README.md maps each metric to the workloads that exercise it).
var perLayer = []metric{
	{"sim.build_s", "s", "lower"},
	{"sim.first_day_s", "s", "lower"},
	{"sim.day_ms.p50", "ms", "lower"},
	{"sim.day_ms.p90", "ms", "lower"},
	{"sim.run_s", "s", "lower"},
	{"sim.caps_s", "s", "lower"},
	{"experiments.observe_ms.p50", "ms", "lower"},
	{"experiments.observe_share", "ratio", "lower"},
	{"experiments.render_s", "s", "lower"},
	{"experiments.fig1_s", "s", "lower"},
	{"experiments.fig2_s", "s", "lower"},
	{"experiments.fig3_s", "s", "lower"},
	{"experiments.fig4_s", "s", "lower"},
	{"experiments.fig5_s", "s", "lower"},
	{"experiments.fig6_s", "s", "lower"},
	{"experiments.fig7_s", "s", "lower"},
	{"experiments.fig8_s", "s", "lower"},
	{"experiments.fig9_s", "s", "lower"},
	{"experiments.encode_ms.p50", "ms", "lower"},
	{"experiments.frame_bytes_per_day", "B", "lower"},
	{"experiments.merge_ms.p50", "ms", "lower"},
	{"core.train_s", "s", "lower"},
	{"core.evaluate_s", "s", "lower"},
	{"beacon.run_ns", "ns", "lower"},
	{"dns.select_targets_ns", "ns", "lower"},
	{"beacon.count", "count", "higher"},
	{"load.overloaded_site_days", "count", "lower"},
	{"load.shed_frac", "ratio", "lower"},
	{"load.peak_util", "ratio", "lower"},
	{"distsim.run_s", "s", "lower"},
	{"distsim.worker_peak_rss_mib", "MiB", "lower"},
	{"distsim.coord_peak_rss_mib", "MiB", "lower"},
	{"runtime.alloc_mib", "MiB", "lower"},
	{"runtime.gc_cycles", "count", "lower"},
	{"runtime.gc_pause_ms", "ms", "lower"},
	{"trace.overhead_frac", "ratio", "lower"},
}
