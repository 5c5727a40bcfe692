// Command perfbench is the simulator's benchmark. One invocation measures
// one workload:
//
//	perfbench --workload passive-stream --seed 1 --seconds 30 --trace 0
//
// It runs the workload again and again, each run in a fresh child process
// and never two at once, until --seconds have passed after a discarded
// warm-up run. Every run's output is checked. The last line of standard
// output is one JSON object: whether every run was correct, how many runs
// were attempted and failed, and the medians of the end-to-end metrics
// (--trace 0) or of the per-layer metrics of traced runs (--trace 1).
// README.md describes the workloads and metrics.
package main

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"

	"anycastcdn/internal/distsim"
)

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload name")
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed")
	flag.Float64Var(&o.seconds, "seconds", 30, "how long to measure, after the warm-up run")
	flag.IntVar(&o.trace, "trace", 0, "1 = report per-layer metrics from traced runs")
	flag.BoolVar(&o.tiny, "tiny", false, "use the tiny sizes of the benchmark's tests")
	flag.StringVar(&o.child, "child", "", "internal: perform one run (run, reference or golden) and print its result")
	flag.StringVar(&o.spans, "spans", "", "internal: trace the child run and write its spans here")
	worker := flag.Bool("worker", false, "internal: serve as a distsim worker on inherited fd 3")
	flag.Parse()

	if *worker {
		if err := distsim.ServeFD(context.Background()); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench worker:", err)
			os.Exit(1)
		}
		return
	}
	if o.child != "" {
		os.Exit(child(o, os.Stdout))
	}
	os.Exit(orchestrate(o, os.Stdout))
}

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	tiny     bool
	child    string
	spans    string
}

// runResult is what a child process reports, as its last line of output.
type runResult struct {
	Workload   string  `json:"workload"`
	Seed       uint64  `json:"seed"`
	Traced     bool    `json:"traced"`
	Prefixes   int     `json:"prefixes"`
	Days       int     `json:"days"`
	BeaconRate float64 `json:"beacon_rate"`
	WallS      float64 `json:"wall_s"`
	SetupS     float64 `json:"setup_s"`
	PeakRSSMiB float64 `json:"peak_rss_mib"`
	Records    int64   `json:"records"`
	Beacons    int64   `json:"beacons"`
	ReportSHA  string  `json:"report_sha256"`
	UtilSHA    string  `json:"util_sha256,omitempty"`
	// Layers holds the per-layer values a traced run measured; SelfS the
	// self time per module in seconds.
	Layers map[string]float64 `json:"layers,omitempty"`
	SelfS  map[string]float64 `json:"self_s,omitempty"`
	Err    string             `json:"error,omitempty"`
}

// child performs one run in this process and prints its result.
func child(o options, stdout io.Writer) int {
	r := runChild(o)
	if err := json.NewEncoder(stdout).Encode(r); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return 0
}

func runChild(o options) runResult {
	if o.child == "golden" {
		o.seed, o.tiny = goldenSeed, true
	}
	r := runResult{Workload: o.workload, Seed: o.seed, Traced: o.spans != ""}
	fail := func(err error) runResult { r.Err = err.Error(); return r }
	wl, err := findWorkload(o.workload)
	if err != nil {
		return fail(err)
	}
	cfg, err := wl.config(o.seed, o.tiny)
	if err != nil {
		return fail(err)
	}
	r.Prefixes, r.Days, r.BeaconRate = cfg.Prefixes, cfg.Days, cfg.BeaconSampleRate
	fn := wl.run
	if o.child == "reference" {
		if wl.reference == nil {
			return fail(fmt.Errorf("workload %s has no reference run", wl.name))
		}
		fn = wl.reference
	}
	exe, err := os.Executable()
	if err != nil {
		return fail(err)
	}
	var tr *tracer
	if r.Traced {
		tr = newTracer(fmt.Sprintf("%s/%s/seed-%d/%s", wl.name, o.child, o.seed, filepath.Base(o.spans)))
	}

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	root := tr.begin("bench." + o.child)
	start := time.Now()
	out, err := fn(context.Background(), runEnv{tr: tr, setupReps: wl.setupReps, exe: exe}, cfg)
	end := time.Now()
	tr.end(root)
	if err != nil {
		return fail(err)
	}
	runtime.ReadMemStats(&m1)
	if out.peakRSS == 0 {
		out.peakRSS = peakRSS()
	}
	// A run without a timed set-up (the reference) counts from its start.
	wall := end.Sub(start)
	if !out.setupDone.IsZero() {
		wall = out.setup + end.Sub(out.setupDone)
	}
	r.WallS, r.SetupS, r.PeakRSSMiB = wall.Seconds(), out.setup.Seconds(), mib(out.peakRSS)
	r.Records, r.Beacons = out.records, out.beacons
	r.ReportSHA = digest(out.reports)
	if out.util != nil {
		r.UtilSHA = utilDigest(out.util)
	}
	if tr == nil {
		return r
	}

	if out.probe != nil {
		if err := out.probe(tr); err != nil {
			return fail(err)
		}
	}
	r.Layers = spanLayers(tr.spans)
	for k, v := range out.layers {
		r.Layers[k] = v
	}
	if out.util != nil {
		for k, v := range loadLayers(out.util) {
			r.Layers[k] = v
		}
	}
	r.Layers["beacon.count"] = float64(out.beacons)
	r.Layers["runtime.alloc_mib"] = mib(int64(m1.TotalAlloc - m0.TotalAlloc))
	r.Layers["runtime.gc_cycles"] = float64(m1.NumGC - m0.NumGC)
	r.Layers["runtime.gc_pause_ms"] = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6
	r.SelfS = map[string]float64{}
	for mod, d := range selfTimes(tr.spans) {
		r.SelfS[mod] = d.Seconds()
	}
	if err := checkNesting(tr.spans); err != nil {
		return fail(err)
	}
	if err := tr.write(o.spans); err != nil {
		return fail(err)
	}
	return r
}

// spanLayers derives the span-timed per-layer metrics from one process's
// spans. Only layers the process called appear.
func spanLayers(spans []Span) map[string]float64 {
	by := map[string][]Span{}
	for _, s := range spans {
		by[s.Name] = append(by[s.Name], s)
	}
	perCallMs := func(ss []Span) []float64 {
		out := make([]float64, len(ss))
		for i, s := range ss {
			out[i] = float64(s.Dur()) / 1e6
		}
		return out
	}
	l := map[string]float64{}
	// sum sets key to the total duration of the named spans, if any ran.
	sum := func(key string, names ...string) {
		var t time.Duration
		found := false
		for _, n := range names {
			for _, s := range by[n] {
				t += s.Dur()
				found = true
			}
		}
		if found {
			l[key] = t.Seconds()
		}
	}
	// A run repeats its set-up; sim.build_s is the mean build, as setup_s
	// is the mean set-up.
	if builds := append(perCallMs(by["sim.BuildWorld"]), perCallMs(by["sim.BuildShardWorld"])...); len(builds) > 0 {
		l["sim.build_s"] = total(builds) / float64(len(builds)) / 1e3
	}
	sum("sim.run_s", "sim.RunWorld")
	sum("sim.caps_s", "sim.ShardLoadMatrix", "sim.CapsFromLoadMatrix")
	sum("experiments.render_s", "experiments.render")
	for i := 1; i <= 9; i++ {
		sum(fmt.Sprintf("experiments.fig%d_s", i), fmt.Sprintf("experiments.Figure%d", i))
	}
	sum("core.train_s", "core.Predictor.Train")
	sum("core.evaluate_s", "core.Evaluator.Evaluate")
	sum("distsim.run_s", "distsim.Run")
	for key, name := range map[string]string{
		"beacon.run_ns":         "beacon.Executor.Run",
		"dns.select_targets_ns": "dns.Authority.SelectBeaconTargets",
	} {
		if ss := by[name]; len(ss) > 0 && ss[0].Count > 0 {
			l[key] = float64(ss[0].Dur()) / float64(ss[0].Count)
		}
	}
	if days := by["sim.day"]; len(days) > 0 {
		l["sim.first_day_s"] = days[0].Dur().Seconds()
		if gaps := perCallMs(days[1:]); len(gaps) > 0 {
			l["sim.day_ms.p50"] = quantile(gaps, 0.5)
			l["sim.day_ms.p90"] = quantile(gaps, 0.9)
			if obs := perCallMs(by["experiments.StreamSuite.Observe"]); len(obs) == len(days) {
				l["experiments.observe_ms.p50"] = quantile(obs, 0.5)
				o, g := total(obs[1:]), total(gaps)
				l["experiments.observe_share"] = o / (o + g)
			}
		}
	}
	if ss := by["experiments.ShardObserver.AppendDay"]; len(ss) > 0 {
		l["experiments.encode_ms.p50"] = quantile(perCallMs(ss), 0.5)
	}
	if ss := by["experiments.StreamSuite.MergeShardDay"]; len(ss) > 0 {
		l["experiments.merge_ms.p50"] = quantile(perCallMs(ss), 0.5)
	}
	return l
}

func total(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// quantile is the q-quantile of xs by linear interpolation between order
// statistics (xs is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// budget bounds a whole invocation, leaving margin under the three
// minutes an invocation may take.
const budget = 170 * time.Second

// orchestrate runs one workload's invocation and prints its result. It
// returns a non-zero code, printing no result, only when it cannot run
// the workload at all.
func orchestrate(o options, stdout io.Writer) int {
	wl, err := findWorkload(o.workload)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if o.trace != 0 && o.trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	ctx, cancel := context.WithTimeout(context.Background(), budget)
	defer cancel()
	spanDir := filepath.Join(".bench_build", "spans")
	if o.trace == 1 {
		if err := os.MkdirAll(spanDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 2
		}
	}
	inv := &invocation{ctx: ctx, opts: o, exe: exe}
	spans := func(kind string) string {
		if o.trace == 0 {
			return ""
		}
		inv.spanFiles++
		return filepath.Join(spanDir, fmt.Sprintf("%s-seed%d-%02d-%s.json", o.workload, o.seed, inv.spanFiles, kind))
	}

	// The pinned run and the reference run happen once, before the runs
	// they vouch for; if either fails, every run counts as failed.
	pinned, err := inv.spawn("golden", "")
	if err == nil {
		err = checkGolden(pinned)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: pinned run:", err)
		inv.badOutput = true
	}
	if wl.reference != nil {
		ref, err := inv.spawn("reference", spans("reference"))
		if err == nil {
			err = inv.checkShape(ref)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: reference run:", err)
			inv.badOutput = true
		}
		inv.ref = ref
	}
	// The warm-up run fills the page cache and the kernel's allocator
	// state; it is checked but its numbers are discarded.
	inv.record(inv.spawn("run", ""))
	var untraced, traced []runResult
	measureStart := time.Now()
	for n := 0; n == 0 || time.Since(measureStart).Seconds() < o.seconds; n++ {
		// Traced invocations alternate untraced and traced runs: the
		// untraced ones are the base of the tracing overhead.
		if o.trace == 1 && n%2 == 1 {
			r, ok := inv.record(inv.spawn("run", spans("run")))
			if ok {
				traced = append(traced, r)
			}
		} else if r, ok := inv.record(inv.spawn("run", "")); ok {
			untraced = append(untraced, r)
		}
		if ctx.Err() != nil {
			break
		}
	}
	if o.trace == 1 && len(traced) == 0 && ctx.Err() == nil {
		if r, ok := inv.record(inv.spawn("run", spans("run"))); ok {
			traced = append(traced, r)
		}
	}

	var metrics map[string]measured
	if o.trace == 0 {
		metrics = endToEndMetrics(untraced)
	} else {
		metrics = layerMetrics(untraced, traced, inv.ref)
		printTable(stdout, o.workload, metrics, traced)
	}
	if inv.badOutput {
		inv.failed = inv.attempted
	}
	// The digests of this seed, for comparing runs across commits.
	fmt.Fprintf(stdout, "digests %s seed %d: report_sha256 %s util_sha256 %s\n",
		o.workload, o.seed, cmp.Or(inv.reportSHA, "-"), cmp.Or(inv.utilSHA, "-"))
	out := struct {
		Correct   bool                `json:"correct"`
		Attempted int                 `json:"attempted"`
		Failed    int                 `json:"failed"`
		Metrics   map[string]measured `json:"metrics"`
	}{inv.failed == 0 && inv.attempted > 0, inv.attempted, inv.failed, metrics}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	return 0
}

type measured struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// invocation is the state of one benchmark invocation: its runs so far
// and the digests every later run must reproduce.
type invocation struct {
	ctx       context.Context
	opts      options
	exe       string
	ref       runResult
	badOutput bool // the pinned or the reference run failed
	spanFiles int

	attempted, failed  int
	reportSHA, utilSHA string // of the first run that passed its check
}

// spawn performs one run in a fresh child process and waits for it.
func (inv *invocation) spawn(kind, spans string) (runResult, error) {
	args := []string{"-child", kind, "-workload", inv.opts.workload, "-seed", strconv.FormatUint(inv.opts.seed, 10)}
	if inv.opts.tiny {
		args = append(args, "-tiny")
	}
	if spans != "" {
		args = append(args, "-spans", spans)
	}
	cmd := exec.CommandContext(inv.ctx, inv.exe, args...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	var r runResult
	if err := json.Unmarshal(lastLine(stdout.Bytes()), &r); err != nil {
		if runErr != nil {
			return r, fmt.Errorf("child run: %w", runErr)
		}
		return r, fmt.Errorf("child run printed no result: %w", err)
	}
	if r.Err != "" {
		return r, errors.New(r.Err)
	}
	return r, runErr
}

// lastLine is the last non-empty line of b.
func lastLine(b []byte) []byte {
	b = bytes.TrimSpace(b)
	return b[bytes.LastIndexByte(b, '\n')+1:]
}

// record counts a run and checks its output. It returns the run and
// whether it passed.
func (inv *invocation) record(r runResult, err error) (runResult, bool) {
	inv.attempted++
	if err == nil {
		err = inv.check(r)
	}
	if err != nil {
		inv.failed++
		if inv.ctx.Err() == nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: run failed: %v\n", inv.opts.workload, inv.opts.seed, err)
		}
		return r, false
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d run %d: wall %.3fs setup %.3fs peak RSS %.1f MiB traced=%v\n",
		inv.opts.workload, inv.opts.seed, inv.attempted, r.WallS, r.SetupS, r.PeakRSSMiB, r.Traced)
	return r, true
}

// checkShape checks what every run of the config must satisfy on its own:
// one passive record per client-day, and beacons exactly when the beacon
// rate is non-zero.
func (inv *invocation) checkShape(r runResult) error {
	if want := int64(r.Prefixes) * int64(r.Days); r.Records != want || want == 0 {
		return fmt.Errorf("%d records, want %d prefixes x %d days", r.Records, r.Prefixes, r.Days)
	}
	if (r.Beacons > 0) != (r.BeaconRate > 0) {
		return fmt.Errorf("%d beacons at beacon rate %v", r.Beacons, r.BeaconRate)
	}
	return nil
}

// check is the output check of one run: its shape, then its digests. Every
// run of one seed must render the same reports; a workload with a
// reference run must match the reference's reports and utilization.
func (inv *invocation) check(r runResult) error {
	if err := inv.checkShape(r); err != nil {
		return err
	}
	if inv.ref.ReportSHA != "" {
		if r.ReportSHA != inv.ref.ReportSHA {
			return fmt.Errorf("reports digest %.12s differs from the single-process reference %.12s", r.ReportSHA, inv.ref.ReportSHA)
		}
		if r.UtilSHA != inv.ref.UtilSHA {
			return fmt.Errorf("utilization digest %.12s differs from the single-process reference %.12s", r.UtilSHA, inv.ref.UtilSHA)
		}
	}
	if inv.reportSHA == "" {
		inv.reportSHA, inv.utilSHA = r.ReportSHA, r.UtilSHA
	} else if r.ReportSHA != inv.reportSHA || r.UtilSHA != inv.utilSHA {
		return fmt.Errorf("digests %.12s/%.12s differ from an earlier run's %.12s/%.12s",
			r.ReportSHA, r.UtilSHA, inv.reportSHA, inv.utilSHA)
	}
	return nil
}

// endToEndMetrics are the medians over the untraced measured runs.
func endToEndMetrics(runs []runResult) map[string]measured {
	vals := map[string][]float64{}
	for _, r := range runs {
		vals["wall_s"] = append(vals["wall_s"], r.WallS)
		vals["setup_s"] = append(vals["setup_s"], r.SetupS)
		vals["client_days_per_s"] = append(vals["client_days_per_s"], float64(r.Prefixes*r.Days)/(r.WallS-r.SetupS))
		vals["peak_rss_mib"] = append(vals["peak_rss_mib"], r.PeakRSSMiB)
	}
	out := map[string]measured{}
	for _, m := range endToEnd {
		out[m.Name] = measured{median(vals[m.Name]), m.Unit}
	}
	return out
}

// layerMetrics are the medians over the traced runs, each run's layers
// completed by the traced reference run's. A layer no run measured reads
// 0. trace.overhead_frac compares the traced and untraced median walls.
func layerMetrics(untraced, traced []runResult, ref runResult) map[string]measured {
	vals := map[string][]float64{}
	var walls []float64
	for _, r := range traced {
		for k, v := range ref.Layers {
			if _, ok := r.Layers[k]; !ok {
				vals[k] = append(vals[k], v)
			}
		}
		for k, v := range r.Layers {
			vals[k] = append(vals[k], v)
		}
		walls = append(walls, r.WallS)
	}
	var base []float64
	for _, r := range untraced {
		base = append(base, r.WallS)
	}
	if len(walls) > 0 && len(base) > 0 {
		vals["trace.overhead_frac"] = []float64{median(walls)/median(base) - 1}
	}
	out := map[string]measured{}
	for _, m := range perLayer {
		out[m.Name] = measured{median(vals[m.Name]), m.Unit}
	}
	return out
}

// printTable writes the traced run's per-layer metrics and the self time
// of each module.
func printTable(w io.Writer, workload string, metrics map[string]measured, traced []runResult) {
	fmt.Fprintf(w, "\nper-layer metrics, %s (median of %d traced runs)\n", workload, len(traced))
	for _, m := range perLayer {
		fmt.Fprintf(w, "  %-34s %14.6g %s\n", m.Name, metrics[m.Name].Value, m.Unit)
	}
	self := map[string][]float64{}
	for _, r := range traced {
		for mod, s := range r.SelfS {
			self[mod] = append(self[mod], s)
		}
	}
	mods := make([]string, 0, len(self))
	for mod := range self {
		mods = append(mods, mod)
	}
	sort.Strings(mods)
	fmt.Fprintf(w, "self time per module (s, median)\n")
	for _, mod := range mods {
		fmt.Fprintf(w, "  %-34s %14.6g\n", mod, median(self[mod]))
	}
}
