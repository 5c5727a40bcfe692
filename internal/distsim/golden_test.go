package distsim

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"anycastcdn/internal/faults"
	"anycastcdn/internal/load"
	"anycastcdn/internal/sim"
)

var update = flag.Bool("update", false, "rewrite golden files under testdata/")

// policiesScenario runs two overlapping regional surges, so the
// controllers shed, withdraw and reclaim across the run.
const policiesScenario = "surge south-america day=2 for=4 qps=12; surge europe day=5 for=2 qps=8"

// TestLoadPoliciesGolden pins the load layer at full precision: every
// day's per-site utilization under each policy, from one process and
// from a 3-shard fleet, plus the flash-crowd report. Every float is
// written with the shortest representation that round-trips, so a change
// in the last bit of any capacity, load or shed fraction fails the test.
// Run `go test ./internal/distsim -run LoadPoliciesGolden -update` after
// an intentional change.
func TestLoadPoliciesGolden(t *testing.T) {
	sc, err := faults.ParseScenario(policiesScenario)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, p := range []load.Policy{load.Static, load.FastRoute, load.Withdraw} {
		cfg := sim.DefaultConfig(1)
		cfg.Prefixes = 2000
		cfg.Days = 10
		cfg.Scenario = &sc
		cfg.LoadManager = &load.ManagerConfig{Policy: p}
		suite, utils := singleProcess(t, cfg)
		writeUtilization(&b, p.String()+" single process", utils)
		res, err := Run(context.Background(), cfg, Options{Shards: 3, InProcess: true})
		if err != nil {
			t.Fatal(err)
		}
		writeUtilization(&b, p.String()+" 3 shards", res.Utilization)
		if p == load.Static {
			b.WriteString(suite.LoadShedding(4).Render())
		}
	}
	checkGolden(t, "load-policies", b.String())
}

// writeUtilization writes one run's utilization, a line per site-day.
func writeUtilization(b *strings.Builder, title string, utils [][]sim.SiteUtil) {
	g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	fmt.Fprintf(b, "== %s: day site queries capacity shed withdrawn\n", title)
	for day, us := range utils {
		for _, u := range us {
			fmt.Fprintf(b, "%d %d %s %s %s %t\n", day, u.Site, g(u.Queries), g(u.Capacity), g(u.ShedFrac), u.Withdrawn)
		}
	}
}

// checkGolden compares got against testdata/<name>.golden, or rewrites
// the file under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
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
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := range min(len(gl), len(wl)) {
			if gl[i] != wl[i] {
				t.Fatalf("%s drifted from %s at line %d:\n got: %s\nwant: %s", name, path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("%s drifted from %s: %d lines, want %d", name, path, len(gl), len(wl))
	}
}
