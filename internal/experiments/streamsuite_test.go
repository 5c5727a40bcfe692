package experiments

import (
	"testing"

	"anycastcdn/internal/logs"
	"anycastcdn/internal/sim"
	"anycastcdn/internal/testutil"
)

// TestStreamSuiteMatchesSuite pins the batch Suite's replay of its Result
// against the live stream: a StreamSuite fed day by day from StreamWorld
// renders byte-identical reports to the Suite, which replays the
// materialized Result's days into its own StreamSuite. Every passive-log
// experiment is covered.
func TestStreamSuiteMatchesSuite(t *testing.T) {
	res := testutil.SuiteResult(t)
	batch := testSuite(t)
	ss := NewStreamSuite(res.Cfg, res.World)
	if err := ss.Run(); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name        string
		batch, strm Report
	}{
		{"figure4", batch.Figure4(), ss.Figure4()},
		{"catchments", batch.Catchments(10), ss.Catchments(10)},
		{"tcp-disruption", batch.TCPDisruption(), ss.TCPDisruption()},
		{"load-shedding", batch.LoadShedding(4), ss.LoadShedding(4)},
		{"figure7", batch.Figure7(), ss.Figure7()},
		{"figure8", batch.Figure8(), ss.Figure8()},
	} {
		b, s := tc.batch.Render(), tc.strm.Render()
		if b != s {
			t.Errorf("%s: stream report differs from batch report:\n--- batch ---\n%s\n--- stream ---\n%s", tc.name, b, s)
		}
	}
}

// TestZeroQuerySwitchExcludedFromSwitchFigures pins the observability rule
// at the suite level: a front-end change on a day the client sent no
// queries is invisible to the log, so neither the affinity figure (7) nor
// the switch-distance figure (8) may count it — only the TCP-disruption
// counts, which read every record, do. The same rule already holds for
// the logs-level helpers (TestZeroQuerySwitchInvisibleToBothFigures in
// internal/logs); this test keeps Observe honest too.
func TestZeroQuerySwitchExcludedFromSwitchFigures(t *testing.T) {
	res := testutil.SmallResult(t)
	bb := res.World.Deployment.Backbone
	fes := bb.FrontEnds()
	if len(fes) < 2 {
		t.Fatal("fixture world needs two front-ends")
	}
	visible := logs.DayRecord{
		ClientID: 1, Day: 1, FrontEnd: fes[1], PrevFrontEnd: fes[0],
		Switched: true, Queries: 5,
	}
	invisible := visible
	invisible.ClientID = 2
	invisible.Queries = 0

	ss := NewStreamSuite(res.Cfg, res.World)
	if err := ss.Observe(sim.DayResult{Day: 1, Passive: []logs.DayRecord{visible, invisible}}); err != nil {
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
