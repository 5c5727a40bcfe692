package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"anycastcdn/internal/faults"
	"anycastcdn/internal/testutil"
)

var update = flag.Bool("update", false, "rewrite golden files under testdata/")

// checkGolden compares rendered report text against testdata/<name>.golden;
// run `go test ./internal/experiments -run Golden -update` after an
// intentional rendering or simulation change.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	if got == "" {
		t.Fatalf("%s rendered empty output", name)
	}
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("%s output drifted from %s (re-run with -update if intentional):\n--- got ---\n%s\n--- want ---\n%s",
			name, path, got, string(want))
	}
}

// TestReportRenderGolden pins every paper report and the two §6
// extensions on the SuiteConfig fixture.
func TestReportRenderGolden(t *testing.T) {
	s := testSuite(t)
	for _, tc := range []struct {
		name string
		r    Report
	}{
		{"figure1", s.Figure1()},
		{"cdn-table", CDNSizeTable()},
		{"figure2", s.Figure2()},
		{"figure3", s.Figure3()},
		{"figure4", s.Figure4()},
		{"figure5", s.Figure5()},
		{"figure6", s.Figure6()},
		{"figure7", s.Figure7()},
		{"figure8", s.Figure8()},
		{"figure9", s.Figure9()},
		{"catchments", s.Catchments(10)},
		{"metric-stability", s.MetricStability()},
		{"hybrid-deployment", s.HybridDeployment()},
	} {
		checkGolden(t, tc.name, tc.r.Render())
	}
}

// goldenScenario uses fixed targets from the default deployment so the
// golden file does not depend on which site happens to be busiest.
const goldenScenario = "drain paris day=2 for=2; flap denver day=3 for=2; inflate europe day=5 ms=30; ldns-outage asia day=6"

func TestResilienceReportGolden(t *testing.T) {
	sc, err := faults.ParseScenario(goldenScenario)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Resilience(testutil.SmallConfig(1), sc)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "resilience", r.Render())
}
