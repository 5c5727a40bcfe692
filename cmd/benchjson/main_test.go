package main

import (
	"strings"
	"testing"
)

func TestParseBenchLine(t *testing.T) {
	r, ok := parseBenchLine("anycastcdn/internal/latency",
		"BenchmarkSampleRTT-8   \t 11487560\t       106.9 ns/op\t       0 B/op\t       0 allocs/op")
	if !ok {
		t.Fatal("parseBenchLine rejected a valid line")
	}
	if r.Name != "BenchmarkSampleRTT-8" || r.Iterations != 11487560 {
		t.Errorf("name/iterations = %q/%d", r.Name, r.Iterations)
	}
	if r.NsPerOp != 106.9 {
		t.Errorf("ns/op = %v, want 106.9", r.NsPerOp)
	}
	if got := r.Metrics["allocs/op"]; got != 0 {
		t.Errorf("allocs/op = %v, want 0", got)
	}
	if got := r.Metrics["B/op"]; got != 0 {
		t.Errorf("B/op = %v, want 0", got)
	}

	for _, line := range []string{
		"ok  \tanycastcdn/internal/latency\t1.2s",
		"BenchmarkBroken-8\tnot-a-number\t5 ns/op",
		"--- BENCH: BenchmarkX",
		"PASS",
	} {
		if _, ok := parseBenchLine("p", line); ok {
			t.Errorf("parseBenchLine accepted %q", line)
		}
	}
}

// TestRunRejoinsSplitEvents feeds run a realistic test2json stream where
// the benchmark name and its measurement line arrive as separate output
// events (the testing package prints the name, runs the benchmark, then
// prints the numbers) — the measurement event's Test field names the
// benchmark. A whole-line event must also still parse, and must not be
// double-counted.
func TestRunRejoinsSplitEvents(t *testing.T) {
	stream := strings.Join([]string{
		`{"Action":"output","Package":"p","Test":"BenchmarkSplit","Output":"BenchmarkSplit\n"}`,
		`{"Action":"output","Package":"p","Test":"BenchmarkSplit","Output":"BenchmarkSplit      \t"}`,
		`{"Action":"output","Package":"p","Test":"BenchmarkSplit","Output":"       1\t129549734 ns/op\t         1.000 median-gain-ms\t43142016 B/op\t   22809 allocs/op\n"}`,
		`{"Action":"output","Package":"p","Output":"BenchmarkWhole-8\t100\t250 ns/op\n"}`,
		`{"Action":"output","Package":"p","Output":"PASS\n"}`,
		`{"Action":"pass","Package":"p"}`,
	}, "\n")
	outPath := t.TempDir() + "/out.json"
	results, err := run(strings.NewReader(stream), outPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("got %d results, want 2: %+v", len(results), results)
	}
	if results[0].Name != "BenchmarkSplit" || results[0].NsPerOp != 129549734 {
		t.Errorf("split event parsed as %+v", results[0])
	}
	if results[0].Metrics["allocs/op"] != 22809 || results[0].Metrics["median-gain-ms"] != 1 {
		t.Errorf("split event metrics = %v", results[0].Metrics)
	}
	if results[1].Name != "BenchmarkWhole-8" || results[1].NsPerOp != 250 {
		t.Errorf("whole-line event parsed as %+v", results[1])
	}
}

// TestRunReducesSamplesToMedians feeds run the output of `go test
// -count`: repeated samples of one benchmark — one of them split over two
// events without a Test field, as test2json emits them — reduce to one
// entry with the median ns/op, per-metric medians and the sample count;
// an even count takes the mean of the middle pair, and a same-named
// benchmark in another package stays its own entry.
func TestRunReducesSamplesToMedians(t *testing.T) {
	line := func(pkg, bench, measured string) string {
		return `{"Action":"output","Package":"` + pkg + `","Output":"` + bench + `\t` + measured + `\n"}`
	}
	stream := strings.Join([]string{
		line("p", "BenchmarkA-2", `1\t500 ns/op\t50 B/op\t5 allocs/op`),
		line("p", "BenchmarkA-2", `1\t100 ns/op\t10 B/op\t1 allocs/op`),
		`{"Action":"output","Package":"p","Output":"BenchmarkA-2   \t"}`,
		`{"Action":"output","Package":"p","Output":"       1\t300 ns/op\t30 B/op\t3 allocs/op\n"}`,
		line("q", "BenchmarkA-2", `7\t1 ns/op`),
		line("p", "BenchmarkA-2", `1\t900 ns/op\t90 B/op\t9 allocs/op`),
		line("p", "BenchmarkA-2", `1\t200 ns/op\t20 B/op\t2 allocs/op`),
		line("p", "BenchmarkB-2", `4\t10 ns/op`),
		line("p", "BenchmarkB-2", `2\t40 ns/op`),
	}, "\n")
	results, err := run(strings.NewReader(stream), t.TempDir()+"/out.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("got %d results, want 3: %+v", len(results), results)
	}
	a, b, q := results[0], results[1], results[2]
	if a.Package != "p" || a.Name != "BenchmarkA-2" || a.Samples != 5 || a.NsPerOp != 300 || a.Iterations != 1 {
		t.Errorf("five samples reduced to %+v, want p BenchmarkA-2 at 300 ns/op over 5 samples", a)
	}
	if a.Metrics["B/op"] != 30 || a.Metrics["allocs/op"] != 3 {
		t.Errorf("per-metric medians = %v, want 30 B/op and 3 allocs/op", a.Metrics)
	}
	if b.Name != "BenchmarkB-2" || b.Samples != 2 || b.NsPerOp != 25 || b.Iterations != 3 {
		t.Errorf("two samples reduced to %+v, want 25 ns/op and 3 iterations over 2 samples", b)
	}
	if q.Package != "q" || q.Samples != 1 || q.NsPerOp != 1 || q.Iterations != 7 {
		t.Errorf("the other package's sample reduced to %+v, want it kept alone", q)
	}
}

func TestBenchName(t *testing.T) {
	cases := map[string]string{
		"BenchmarkSampleRTT-8":   "BenchmarkSampleRTT",
		"BenchmarkSampleRTT-128": "BenchmarkSampleRTT",
		"BenchmarkSampleRTT":     "BenchmarkSampleRTT",
		"BenchmarkFoo-bar":       "BenchmarkFoo-bar",
	}
	for in, want := range cases {
		if got := benchName(in); got != want {
			t.Errorf("benchName(%q) = %q, want %q", in, got, want)
		}
	}
}

func bench(name string, ns float64, metrics map[string]float64) result {
	return result{Package: "p", Name: name, Iterations: 1, NsPerOp: ns, Metrics: metrics}
}

func TestGateTolerance(t *testing.T) {
	baseline := []result{bench("BenchmarkA", 1000, nil)}

	fails, err := gate([]result{bench("BenchmarkA-8", 1100, nil)}, baseline, 0.15, "", "", "")
	if err != nil || len(fails) != 0 {
		t.Fatalf("within tolerance: fails=%v err=%v", fails, err)
	}

	fails, err = gate([]result{bench("BenchmarkA-8", 1300, nil)}, baseline, 0.15, "", "", "")
	if err != nil || len(fails) != 1 {
		t.Fatalf("regression: fails=%v err=%v", fails, err)
	}
	if !strings.Contains(fails[0], "BenchmarkA") ||
		!strings.Contains(fails[0], "1000") || !strings.Contains(fails[0], "1300") {
		t.Errorf("failure must name the benchmark and both ns/op values: %q", fails[0])
	}

	fails, err = gate(nil, baseline, 0.15, "", "", "")
	if err != nil || len(fails) != 1 || !strings.Contains(fails[0], "missing from this run") {
		t.Fatalf("missing benchmark: fails=%v err=%v", fails, err)
	}
}

func TestGateMinSpeedup(t *testing.T) {
	baseline := []result{bench("BenchmarkFloor", 9000, nil)}

	fails, err := gate([]result{bench("BenchmarkFloor-4", 3000, nil)}, baseline, 0.15, "BenchmarkFloor=3", "", "")
	if err != nil || len(fails) != 0 {
		t.Fatalf("exactly 3x: fails=%v err=%v", fails, err)
	}

	fails, err = gate([]result{bench("BenchmarkFloor-4", 4000, nil)}, baseline, 0.15, "BenchmarkFloor=3", "", "")
	if err != nil || len(fails) != 1 {
		t.Fatalf("only 2.25x: fails=%v err=%v", fails, err)
	}
	if !strings.Contains(fails[0], "BenchmarkFloor") ||
		!strings.Contains(fails[0], "9000") || !strings.Contains(fails[0], "4000") {
		t.Errorf("failure must name the benchmark and both ns/op values: %q", fails[0])
	}

	// A minspeedup target absent from the baseline is a config error.
	fails, err = gate([]result{bench("BenchmarkFloor-4", 10, nil)}, baseline, 0.15, "BenchmarkGone=2", "", "")
	if err != nil || len(fails) != 1 || !strings.Contains(fails[0], "BenchmarkGone") {
		t.Fatalf("unknown minspeedup target: fails=%v err=%v", fails, err)
	}
}

func TestGateMaxAllocs(t *testing.T) {
	cur := []result{
		bench("BenchmarkZero-8", 10, map[string]float64{"allocs/op": 0}),
		bench("BenchmarkLeaky-8", 10, map[string]float64{"allocs/op": 3}),
		bench("BenchmarkSilent-8", 10, nil),
	}

	fails, err := gate(cur, nil, 0.15, "", "BenchmarkZero=0", "")
	if err != nil || len(fails) != 0 {
		t.Fatalf("zero allocs: fails=%v err=%v", fails, err)
	}

	fails, err = gate(cur, nil, 0.15, "", "BenchmarkLeaky=0", "")
	if err != nil || len(fails) != 1 || !strings.Contains(fails[0], "3 allocs/op") {
		t.Fatalf("leaky: fails=%v err=%v", fails, err)
	}

	// A benchmark without ReportAllocs must fail, not silently pass.
	fails, err = gate(cur, nil, 0.15, "", "BenchmarkSilent=0", "")
	if err != nil || len(fails) != 1 || !strings.Contains(fails[0], "ReportAllocs") {
		t.Fatalf("missing metric: fails=%v err=%v", fails, err)
	}

	fails, err = gate(cur, nil, 0.15, "", "BenchmarkAbsent=0", "")
	if err != nil || len(fails) != 1 || !strings.Contains(fails[0], "did not run") {
		t.Fatalf("absent benchmark: fails=%v err=%v", fails, err)
	}
}

func TestGateMalformedSpec(t *testing.T) {
	if _, err := gate(nil, nil, 0.15, "BenchmarkA", "", ""); err == nil {
		t.Error("want error for spec without '='")
	}
	if _, err := gate(nil, nil, 0.15, "", "BenchmarkA=x", ""); err == nil {
		t.Error("want error for non-numeric value")
	}
}

// TestGateBaselineMatchedByPackage pins the package-collision fix: a
// benchmark with the same bare name in a DIFFERENT package must not
// satisfy a baseline entry — deleting a gated benchmark while an
// unrelated package happens to define one with the same name has to fail
// the gate, not silently pass it.
func TestGateBaselineMatchedByPackage(t *testing.T) {
	baseline := []result{{Package: "pkg/a", Name: "BenchmarkShared", Iterations: 1, NsPerOp: 1000}}
	impostor := []result{{Package: "pkg/b", Name: "BenchmarkShared-8", Iterations: 1, NsPerOp: 10}}

	fails, err := gate(impostor, baseline, 0.15, "", "", "")
	if err != nil || len(fails) != 1 {
		t.Fatalf("same-name bench in another package masked the deletion: fails=%v err=%v", fails, err)
	}
	if !strings.Contains(fails[0], "missing from this run") || !strings.Contains(fails[0], "pkg/a") {
		t.Errorf("failure must name the missing benchmark's package: %q", fails[0])
	}

	// The real benchmark in the right package still gates normally, even
	// with the impostor present.
	both := append([]result{{Package: "pkg/a", Name: "BenchmarkShared-8", Iterations: 1, NsPerOp: 900}}, impostor...)
	fails, err = gate(both, baseline, 0.15, "", "", "")
	if err != nil || len(fails) != 0 {
		t.Fatalf("correct package within tolerance: fails=%v err=%v", fails, err)
	}
	both[0].NsPerOp = 5000
	fails, err = gate(both, baseline, 0.15, "", "", "")
	if err != nil || len(fails) != 1 || !strings.Contains(fails[0], "regressed") {
		t.Fatalf("regression in the right package must fail despite the fast impostor: fails=%v err=%v", fails, err)
	}
}

func TestGateMaxBytes(t *testing.T) {
	cur := []result{
		bench("BenchmarkLean-8", 10, map[string]float64{"B/op": 1024}),
		bench("BenchmarkFat-8", 10, map[string]float64{"B/op": 4096}),
	}

	fails, err := gate(cur, nil, 0.15, "", "", "BenchmarkLean=2048")
	if err != nil || len(fails) != 0 {
		t.Fatalf("under the byte ceiling: fails=%v err=%v", fails, err)
	}

	fails, err = gate(cur, nil, 0.15, "", "", "BenchmarkFat=2048")
	if err != nil || len(fails) != 1 || !strings.Contains(fails[0], "4096 B/op") {
		t.Fatalf("over the byte ceiling: fails=%v err=%v", fails, err)
	}

	fails, err = gate(cur, nil, 0.15, "", "", "BenchmarkAbsent=1")
	if err != nil || len(fails) != 1 || !strings.Contains(fails[0], "did not run") {
		t.Fatalf("absent benchmark: fails=%v err=%v", fails, err)
	}
}
