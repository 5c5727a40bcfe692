package experiments

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"anycastcdn/internal/sim"
)

// TestReferenceRunMemorySmoke streams the EXPERIMENTS.md reference run
// (DefaultConfig(1): 8k client /24s over 30 days, ~2.8M beacon
// executions) through a StreamSuite and renders every paper report and
// both §6 extensions. The fold keeps per-client and per-client-day
// scalars, never the month's beacons, so the heap stays under 512 MiB;
// materializing the run in a Result and folding it through NewSuite
// exceeds 1 GiB. The rendered reports are pinned in
// testdata/reference-run.golden, so every EXPERIMENTS.md headline is
// checked at the scale it is quoted at. Skipped under -short; ci.sh runs
// it as a named smoke step.
func TestReferenceRunMemorySmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("reference-run smoke skipped in short mode")
	}
	cfg := sim.DefaultConfig(1)
	w, err := sim.BuildWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	ss := NewStreamSuite(cfg, w)
	beacons := 0
	err = sim.StreamWorld(cfg, w, func(d sim.DayResult) error {
		beacons += len(d.Beacons)
		return ss.Observe(d)
	})
	if err != nil {
		t.Fatal(err)
	}
	reports := append(ss.All(), ss.MetricStability(), ss.HybridDeployment())
	elapsed := time.Since(start)
	var text strings.Builder
	for _, r := range reports {
		if len(r.Lines) == 0 {
			t.Errorf("%s rendered no headlines", r.ID)
		}
		text.WriteString(r.Render())
	}
	checkGolden(t, "reference-run", text.String())
	if beacons == 0 {
		t.Fatal("reference run executed no beacons")
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if ms.HeapSys > 512<<20 {
		t.Fatalf("heap grew to %d MiB; the beacon fold must stay under 512 MiB", ms.HeapSys>>20)
	}
	t.Logf("%d prefixes x %d days, %d beacons streamed and reported in %v, heap %d MiB",
		cfg.Prefixes, cfg.Days, beacons, elapsed.Round(time.Millisecond), ms.HeapSys>>20)
}
