package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"anycastcdn/internal/experiments"
	"anycastcdn/internal/sim"
)

// TestMain lets the test binary stand in for the benchmark binary: the
// orchestrator re-executes os.Executable() for child runs and distsim
// workers, which is this binary under go test.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && (os.Args[1] == "-child" || os.Args[1] == "-worker") {
		main()
	}
	os.Exit(m.Run())
}

// inTempDir runs the test from an empty directory, where the orchestrator
// writes its span files.
func inTempDir(t *testing.T) {
	t.Helper()
	old, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := os.Chdir(old); err != nil {
			t.Error(err)
		}
	})
}

type benchSpec struct {
	EndToEnd []struct{ Name, Unit, Better string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	Work     []struct{ Name string }               `json:"workloads"`
}

func readSpec(t *testing.T) benchSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSpecMatchesCode pins BENCHMARK.json to the metrics and workloads
// the code prints and runs.
func TestSpecMatchesCode(t *testing.T) {
	s := readSpec(t)
	for _, c := range []struct {
		name string
		spec []struct{ Name, Unit, Better string }
		code []metric
	}{{"end_to_end", s.EndToEnd, endToEnd}, {"per_layer", s.PerLayer, perLayer}} {
		if len(c.spec) != len(c.code) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, code %d", c.name, len(c.spec), len(c.code))
		}
		for i, m := range c.code {
			if got := c.spec[i]; got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, code %+v", c.name, i, got, m)
			}
		}
	}
	if len(s.Work) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, code %d", len(s.Work), len(workloads))
	}
	for i, w := range s.Work {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, code %q", i, w.Name, workloads[i].name)
		}
	}
}

// TestEveryMetricPrinted runs each workload at tiny sizes, untraced and
// traced, and checks the last output line names every declared metric
// with its unit and reports every run correct.
func TestEveryMetricPrinted(t *testing.T) {
	spec := readSpec(t)
	inTempDir(t)
	for _, wl := range workloads {
		for trace, want := range [][]struct{ Name, Unit, Better string }{spec.EndToEnd, spec.PerLayer} {
			var out bytes.Buffer
			if code := orchestrate(options{workload: wl.name, seed: 7, seconds: 0, trace: trace, tiny: true}, &out); code != 0 {
				t.Fatalf("%s trace %d: exit code %d", wl.name, trace, code)
			}
			var res struct {
				Correct           bool
				Attempted, Failed int
				Metrics           map[string]measured
			}
			if err := json.Unmarshal(lastLine(out.Bytes()), &res); err != nil {
				t.Fatalf("%s trace %d: last line is not the result: %v\n%s", wl.name, trace, err, out.String())
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 2 {
				t.Errorf("%s trace %d: correct=%v attempted=%d failed=%d", wl.name, trace, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace %d: %d metrics printed, want %d", wl.name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace %d: metric %s = %+v, want unit %s", wl.name, trace, m.Name, got, m.Unit)
				}
			}
			if trace == 0 {
				for _, m := range want {
					if res.Metrics[m.Name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", wl.name, m.Name, res.Metrics[m.Name].Value)
					}
				}
			}
		}
	}
}

// goodRun is a run result that passes the output check.
func goodRun() runResult {
	return runResult{Prefixes: 10, Days: 3, BeaconRate: 0.1, Records: 30, Beacons: 5, ReportSHA: "aaaa"}
}

func TestCheckCountsFailures(t *testing.T) {
	inv := &invocation{ctx: context.Background()}
	if _, ok := inv.record(goodRun(), nil); !ok {
		t.Fatal("a good run failed its check")
	}
	corrupt := goodRun()
	corrupt.ReportSHA = "bbbb"
	fewer := goodRun()
	fewer.Records--
	noBeacons := goodRun()
	noBeacons.Beacons = 0
	strayBeacons := goodRun()
	strayBeacons.BeaconRate = 0
	for name, r := range map[string]runResult{"corrupted digest": corrupt, "missing record": fewer,
		"no beacons": noBeacons, "beacons at rate 0": strayBeacons} {
		if _, ok := inv.record(r, nil); ok {
			t.Errorf("%s: run passed its check", name)
		}
	}
	if inv.attempted != 5 || inv.failed != 4 {
		t.Errorf("attempted %d failed %d, want 5 and 4", inv.attempted, inv.failed)
	}

	// Against a reference, a matching run passes and a corrupted
	// utilization digest fails.
	ref := goodRun()
	ref.UtilSHA = "cccc"
	inv = &invocation{ctx: context.Background(), ref: ref}
	if _, ok := inv.record(ref, nil); !ok {
		t.Error("a run matching the reference failed its check")
	}
	badUtil := ref
	badUtil.UtilSHA = "dddd"
	if _, ok := inv.record(badUtil, nil); ok {
		t.Error("a corrupted utilization digest passed the check")
	}
}

// TestSpansNest traces one tiny run of each workload and checks every
// child span lies inside its parent, in the span file as written.
func TestSpansNest(t *testing.T) {
	for _, wl := range workloads {
		kinds := []string{"run"}
		if wl.reference != nil {
			kinds = append(kinds, "reference")
		}
		for _, kind := range kinds {
			path := filepath.Join(t.TempDir(), "spans.json")
			r := runChild(options{workload: wl.name, seed: 3, tiny: true, child: kind, spans: path})
			if r.Err != "" {
				t.Fatalf("%s %s: %s", wl.name, kind, r.Err)
			}
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var spans []Span
			if err := json.Unmarshal(b, &spans); err != nil {
				t.Fatal(err)
			}
			if len(spans) < 5 || spans[0].Name != "bench."+kind {
				t.Fatalf("%s %s: %d spans, first %+v", wl.name, kind, len(spans), spans[0])
			}
			if err := checkNesting(spans); err != nil {
				t.Errorf("%s %s: %v", wl.name, kind, err)
			}
		}
	}
}

var update = flag.Bool("update", false, "rewrite golden.json from the pinned runs")

// TestGoldenDigests checks each workload's pinned run against golden.json,
// or rewrites the file with -update.
func TestGoldenDigests(t *testing.T) {
	got := map[string]digests{}
	for _, wl := range workloads {
		r := runChild(options{workload: wl.name, child: "golden"})
		if r.Err != "" {
			t.Fatalf("%s: %s", wl.name, r.Err)
		}
		got[wl.name] = digests{r.ReportSHA, r.UtilSHA}
		if *update {
			continue
		}
		if err := checkGolden(r); err != nil {
			t.Error(err)
		}
		corrupt := r
		corrupt.ReportSHA = digest("corrupted")
		if checkGolden(corrupt) == nil {
			t.Errorf("%s: a corrupted report digest passed the pinned check", wl.name)
		}
	}
	if *update {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("golden.json", append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCheckNestingCatchesEscape(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "bench.run", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "sim.BuildWorld", Start: 10, End: 101},
	}
	if checkNesting(spans) == nil {
		t.Error("a child ending after its parent passed")
	}
}

func TestSelfTimes(t *testing.T) {
	ms := int64(time.Millisecond)
	spans := []Span{
		{ID: 1, Name: "bench.run", Start: 0, End: 100 * ms},
		{ID: 2, Parent: 1, Name: "sim.StreamWorld", Start: 10 * ms, End: 90 * ms},
		{ID: 3, Parent: 2, Name: "sim.day", Start: 10 * ms, End: 40 * ms},
		{ID: 4, Parent: 2, Name: "experiments.StreamSuite.Observe", Start: 40 * ms, End: 50 * ms},
		{ID: 5, Parent: 2, Name: "sim.day", Start: 50 * ms, End: 80 * ms},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{
		"bench":       20 * time.Millisecond,
		"sim":         70 * time.Millisecond, // 10 of StreamWorld's own + 60 of days
		"experiments": 10 * time.Millisecond,
	}
	for mod, d := range want {
		if got[mod] != d {
			t.Errorf("self time of %s = %v, want %v", mod, got[mod], d)
		}
	}
}

// TestSuiteReportsMatchAll pins beacon-figures' per-report calls to what
// Suite.All renders.
func TestSuiteReportsMatchAll(t *testing.T) {
	cfg, err := beaconConfig(5, true)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var all strings.Builder
	for _, r := range experiments.NewSuite(res).All() {
		all.WriteString(r.Render())
		all.WriteByte('\n')
	}
	if got := render(nil, suiteReports(experiments.NewSuite(res))); got != all.String() {
		t.Error("suiteReports renders differently from Suite.All")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 2.5}, {1, 4}, {0.9, 3.7}} {
		if got := quantile(xs, c.q); got < c.want-1e-12 || got > c.want+1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 4 || xs[1] != 1 || xs[2] != 3 || xs[3] != 2 {
		t.Errorf("quantile reordered its input to %v", xs)
	}
}
