// Command benchjson summarizes a `go test -json` stream into a compact
// machine-readable benchmark report. It reads test2json events on stdin,
// extracts the benchmark result lines ("BenchmarkX-8  42  123456 ns/op
// ..."), and writes them as sorted JSON, so CI can archive one stable
// artifact (BENCH_repro.json) per run instead of scraping logs:
//
//	go test -bench=. -benchtime=1x -count=5 -run '^$' -json ./... | benchjson -o BENCH_repro.json
//
// Repeated samples of one benchmark (go test -count) reduce to one entry
// holding the median ns/op, the median of each metric, and the sample
// count, so a gate reads a median rather than one noisy sample.
//
// With -compare, benchjson additionally gates the run against a
// checked-in baseline (BENCH_baseline.json) and exits non-zero naming the
// offending benchmark with its baseline and current ns/op:
//
//	... | benchjson -o BENCH_repro.json -compare BENCH_baseline.json -tolerance 0.15 \
//	        -minspeedup BenchmarkAblationFloor50=3 \
//	        -maxallocs BenchmarkSubstream=0,BenchmarkSampleRTT=0
//
// Three checks run, all against the current results:
//   - every benchmark named in the baseline must not exceed its baseline
//     ns/op by more than -tolerance (fractional; 0.15 = +15%);
//   - each -minspeedup entry must be at least that factor faster than its
//     baseline ns/op (locks in an optimization instead of merely bounding
//     regression);
//   - each -maxallocs entry's allocs/op metric must not exceed the given
//     count (requires b.ReportAllocs in the benchmark).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// event is the subset of test2json's output record benchjson needs.
type event struct {
	Action  string `json:"Action"`
	Package string `json:"Package"`
	Output  string `json:"Output"`
}

// result is one benchmark measurement: one sample as parsed, or the
// per-field medians of Samples samples once reduced.
type result struct {
	Package    string             `json:"package"`
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	NsPerOp    float64            `json:"ns_per_op"`
	Metrics    map[string]float64 `json:"metrics,omitempty"`
	Samples    int                `json:"samples,omitempty"`
}

func main() {
	var (
		out       = flag.String("o", "BENCH_repro.json", "output file")
		compare   = flag.String("compare", "", "baseline JSON file to gate against (empty = no gate)")
		tolerance = flag.Float64("tolerance", 0.15, "allowed fractional ns/op regression versus baseline")
		minSpeed  = flag.String("minspeedup", "", "comma-separated Benchmark=factor minimum speedups versus baseline")
		maxAlloc  = flag.String("maxallocs", "", "comma-separated Benchmark=count allocs/op ceilings")
		maxBytes  = flag.String("maxbytes", "", "comma-separated Benchmark=count B/op ceilings")
	)
	flag.Parse()
	results, err := run(os.Stdin, *out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if *compare == "" {
		return
	}
	baseline, err := loadBaseline(*compare)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	failures, err := gate(results, baseline, *tolerance, *minSpeed, *maxAlloc, *maxBytes)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintln(os.Stderr, "benchjson: GATE FAILED:", f)
		}
		os.Exit(1)
	}
	fmt.Printf("benchjson: gate passed against %s (%d baseline benchmarks, tolerance %.0f%%)\n",
		*compare, len(baseline), *tolerance*100)
}

func run(in io.Reader, outPath string) ([]result, error) {
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	var results []result
	// The testing package prints a benchmark's name, runs it, then prints
	// the measurements, so test2json often splits one result line over
	// two output events — and under -count the repeated samples' events
	// carry no Test field. Reassemble each package's output into lines
	// before parsing.
	pending := map[string]string{}
	for sc.Scan() {
		var ev event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			continue // non-JSON lines (plain `go test` output) are skipped
		}
		if ev.Action != "output" {
			continue
		}
		lines := strings.Split(pending[ev.Package]+ev.Output, "\n")
		pending[ev.Package] = lines[len(lines)-1]
		for _, line := range lines[:len(lines)-1] {
			if r, ok := parseBenchLine(ev.Package, line); ok {
				results = append(results, r)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	results = medians(results)
	b, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(outPath, append(b, '\n'), 0o644); err != nil {
		return nil, err
	}
	fmt.Printf("benchjson: wrote %d benchmark results to %s\n", len(results), outPath)
	return results, nil
}

// medians reduces the samples of each (package, name) to one result whose
// iterations, ns/op and every metric are the medians over the samples that
// report them, sorted by package then name.
func medians(samples []result) []result {
	type benchKey struct{ pkg, name string }
	groups := map[benchKey][]result{}
	var keys []benchKey
	for _, r := range samples {
		k := benchKey{r.Package, r.Name}
		if _, ok := groups[k]; !ok {
			keys = append(keys, k)
		}
		groups[k] = append(groups[k], r)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].pkg != keys[j].pkg {
			return keys[i].pkg < keys[j].pkg
		}
		return keys[i].name < keys[j].name
	})
	out := make([]result, 0, len(keys))
	for _, k := range keys {
		g := groups[k]
		r := result{Package: k.pkg, Name: k.name, Samples: len(g)}
		var iters, ns []float64
		metrics := map[string][]float64{}
		for _, s := range g {
			iters = append(iters, float64(s.Iterations))
			ns = append(ns, s.NsPerOp)
			for unit, v := range s.Metrics {
				metrics[unit] = append(metrics[unit], v)
			}
		}
		r.Iterations = int64(median(iters))
		r.NsPerOp = median(ns)
		for unit, vs := range metrics {
			if r.Metrics == nil {
				r.Metrics = map[string]float64{}
			}
			r.Metrics[unit] = median(vs)
		}
		out = append(out, r)
	}
	return out
}

// median returns the middle value of xs, or the mean of the two middle
// values when len(xs) is even. It sorts xs in place.
func median(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// parseBenchLine parses one benchmark result line of `go test -bench`
// output: "BenchmarkName-8  20  123456 ns/op  512 B/op  3 allocs/op".
func parseBenchLine(pkg, line string) (result, bool) {
	fields := strings.Fields(strings.TrimSpace(line))
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") || !strings.Contains(line, "ns/op") {
		return result{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return result{}, false
	}
	r := result{Package: pkg, Name: fields[0], Iterations: iters}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return result{}, false
		}
		unit := fields[i+1]
		if unit == "ns/op" {
			r.NsPerOp = v
			continue
		}
		if r.Metrics == nil {
			r.Metrics = map[string]float64{}
		}
		r.Metrics[unit] = v
	}
	return r, true
}

func loadBaseline(path string) ([]result, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading baseline: %w", err)
	}
	var rs []result
	if err := json.Unmarshal(b, &rs); err != nil {
		return nil, fmt.Errorf("parsing baseline %s: %w", path, err)
	}
	return rs, nil
}

// benchName strips the -GOMAXPROCS suffix go appends to benchmark names
// ("BenchmarkX-8" → "BenchmarkX"), so baselines compare across machines.
func benchName(name string) string {
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			return name[:i]
		}
	}
	return name
}

// parseRequirements parses "BenchmarkA=3,BenchmarkB=0" lists.
func parseRequirements(spec string) (map[string]float64, error) {
	out := map[string]float64{}
	if spec == "" {
		return out, nil
	}
	for _, part := range strings.Split(spec, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return nil, fmt.Errorf("malformed requirement %q (want Benchmark=value)", part)
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("malformed requirement value in %q: %w", part, err)
		}
		out[name] = v
	}
	return out, nil
}

// gate checks current results against the baseline and the explicit
// speedup/allocation/byte requirements, returning one message per
// violation. Baseline entries are matched by (package, name): a
// same-named benchmark in a different package must not satisfy — and so
// silently mask the deletion of — a gated benchmark. The requirement
// specs (-minspeedup, -maxallocs, -maxbytes) stay keyed by bare name for
// CLI ergonomics; a bare name that matches several packages applies the
// requirement to every match.
func gate(current, baseline []result, tolerance float64, minSpeedSpec, maxAllocSpec, maxBytesSpec string) ([]string, error) {
	minSpeed, err := parseRequirements(minSpeedSpec)
	if err != nil {
		return nil, err
	}
	maxAlloc, err := parseRequirements(maxAllocSpec)
	if err != nil {
		return nil, err
	}
	maxBytes, err := parseRequirements(maxBytesSpec)
	if err != nil {
		return nil, err
	}
	type benchKey struct{ pkg, name string }
	cur := make(map[benchKey]result, len(current))
	byName := make(map[string][]result, len(current))
	for _, r := range current {
		name := benchName(r.Name)
		cur[benchKey{r.Package, name}] = r
		byName[name] = append(byName[name], r)
	}
	var failures []string
	speedChecked := map[string]bool{}
	for _, base := range baseline {
		name := benchName(base.Name)
		r, ok := cur[benchKey{base.Package, name}]
		if !ok {
			failures = append(failures, fmt.Sprintf(
				"%s (%s): present in baseline but missing from this run", name, base.Package))
			continue
		}
		if base.NsPerOp > 0 && r.NsPerOp > base.NsPerOp*(1+tolerance) {
			failures = append(failures, fmt.Sprintf(
				"%s regressed: baseline %.0f ns/op, current %.0f ns/op (%+.0f%%, tolerance %.0f%%)",
				name, base.NsPerOp, r.NsPerOp, (r.NsPerOp/base.NsPerOp-1)*100, tolerance*100))
		}
		if factor, want := minSpeed[name]; want {
			speedChecked[name] = true
			if r.NsPerOp*factor > base.NsPerOp {
				failures = append(failures, fmt.Sprintf(
					"%s speedup %.2fx is below the required %.2fx: baseline %.0f ns/op, current %.0f ns/op",
					name, base.NsPerOp/r.NsPerOp, factor, base.NsPerOp, r.NsPerOp))
			}
		}
	}
	// Any minspeedup entries left over name benchmarks absent from the
	// baseline — that is a configuration error worth failing loudly on.
	for name := range minSpeed {
		if !speedChecked[name] {
			failures = append(failures, fmt.Sprintf("%s: -minspeedup given but benchmark is not in the baseline", name))
		}
	}
	checkMetric := func(spec map[string]float64, flagName, unit, verb string) {
		for name, limit := range spec {
			rs := byName[name]
			if len(rs) == 0 {
				failures = append(failures, fmt.Sprintf("%s: %s given but benchmark did not run", name, flagName))
				continue
			}
			for _, r := range rs {
				v, ok := r.Metrics[unit]
				if !ok {
					failures = append(failures, fmt.Sprintf("%s: no %s metric (missing b.ReportAllocs?)", name, unit))
					continue
				}
				if v > limit {
					failures = append(failures, fmt.Sprintf(
						"%s %s %.0f %s, limit %.0f (%.0f ns/op)", name, verb, v, unit, limit, r.NsPerOp))
				}
			}
		}
	}
	checkMetric(maxAlloc, "-maxallocs", "allocs/op", "allocates")
	checkMetric(maxBytes, "-maxbytes", "B/op", "allocates")
	sort.Strings(failures)
	return failures, nil
}
