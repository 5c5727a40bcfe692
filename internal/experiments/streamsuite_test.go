package experiments

import (
	"testing"

	"anycastcdn/internal/sim"
	"anycastcdn/internal/testutil"
)

// TestStreamSuiteMatchesSuite pins the batch Suite's replay of its Result
// against the live stream: a StreamSuite fed day by day from StreamWorld
// renders byte-identical reports to the Suite, which replays the
// materialized Result's days into its own StreamSuite. Every paper
// report, both §6 extensions and the passive-log extensions are covered.
func TestStreamSuiteMatchesSuite(t *testing.T) {
	res := testutil.SuiteResult(t)
	batch := testSuite(t)
	ss := NewStreamSuite(res.Cfg, res.World)
	if err := ss.Run(); err != nil {
		t.Fatal(err)
	}
	reports := func(s *StreamSuite) []Report {
		return append(s.All(),
			s.MetricStability(),
			s.HybridDeployment(),
			s.Catchments(10),
			s.TCPDisruption(),
			s.LoadShedding(4))
	}
	want, got := reports(batch.StreamSuite), reports(ss)
	for i := range want {
		b, s := want[i].Render(), got[i].Render()
		if b != s {
			t.Errorf("%s: stream report differs from batch report:\n--- batch ---\n%s\n--- stream ---\n%s", want[i].ID, b, s)
		}
	}
}

// TestZeroQuerySwitchExcludedFromSwitchFigures pins the observability rule
// at the suite level: a front-end change on a day the client sent no
// queries is invisible to the log, so neither the affinity figure (7) nor
// the switch-distance figure (8) may count it — only the TCP-disruption
// counts, which read every record, do.
func TestZeroQuerySwitchExcludedFromSwitchFigures(t *testing.T) {
	res := testutil.SmallResult(t)
	bb := res.World.Deployment.Backbone
	fes := bb.FrontEnds()
	if len(fes) < 2 {
		t.Fatal("fixture world needs two front-ends")
	}
	visible := sim.DayRecord{
		ClientID: 1, Day: 1, FrontEnd: fes[1], PrevFrontEnd: fes[0],
		Switched: true, Queries: 5,
	}
	invisible := visible
	invisible.ClientID = 2
	invisible.Queries = 0

	ss := NewStreamSuite(res.Cfg, res.World)
	if err := ss.Observe(sim.DayResult{Day: 1, Passive: []sim.DayRecord{visible, invisible}}); err != nil {
		t.Fatal(err)
	}
	// Only client 1 is seen and switched; client 2's zero-query day puts
	// it outside the observable population entirely.
	pts := ss.Figure7().Figure.Series[0].Points
	if len(pts) != figure7Week || pts[0].Y != 0 || pts[1].Y != 1 {
		t.Fatalf("fig7 cumulative = %v; want exactly the one observable switch", pts)
	}
	if n := ss.sketch.N(); n != 1 {
		t.Fatalf("fig8 sketch holds %d switches, want 1 (zero-query switch must be excluded)", n)
	}
	if ss.switchDays[1] != 1 || ss.switchDays[2] != 1 {
		t.Fatalf("switch days = %v; the TCP counts see both switches", ss.switchDays[:3])
	}
}

// TestBeaconFreeStreamKeepsNoBeaconState pins the beacon fold's lazy
// allocation: a suite that never sees a beacon holds no per-client
// beacon state, and a day without beacons allocates nothing, so
// passive-only runs pay nothing for the fold.
func TestBeaconFreeStreamKeepsNoBeaconState(t *testing.T) {
	cfg := testutil.TinyConfig(3)
	cfg.Days = 3
	cfg.BeaconSampleRate = 0
	w, err := sim.BuildWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ss := NewStreamSuite(cfg, w)
	if err := ss.Run(); err != nil {
		t.Fatal(err)
	}
	b := &ss.beacons
	if b.clients != nil || len(b.world) != 0 || len(b.fig5) != 0 {
		t.Fatalf("beacon-free stream kept beacon state: %d clients, %d penalties, %d Figure 5 days",
			len(b.clients), len(b.world), len(b.fig5))
	}
	if n := testing.AllocsPerRun(10, func() { ss.observeBeacons(cfg.Days, nil) }); n != 0 {
		t.Fatalf("a beacon-free day allocates %.0f times, want 0", n)
	}
}
