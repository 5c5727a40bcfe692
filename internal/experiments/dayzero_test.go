package experiments

import (
	"reflect"
	"testing"

	"anycastcdn/internal/geo"
	"anycastcdn/internal/sim"
	"anycastcdn/internal/stats"
	"anycastcdn/internal/testutil"
	"anycastcdn/internal/topology"
)

// TestDayZeroServedRowsAcrossWorkers pins day 0's fan-out: however many
// goroutines resolve the served rows, including splits that do not
// divide the records evenly and more workers than a range needs, the
// rows are the ones a single worker resolves, in client order.
func TestDayZeroServedRowsAcrossWorkers(t *testing.T) {
	cfg := testutil.TinyConfig(12)
	cfg.Prefixes = 1_001
	cfg.Days = 1
	cfg.BeaconSampleRate = 0
	w, err := sim.BuildWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	served := func(workers int) []servedRow {
		c := cfg
		c.Workers = workers
		ss := NewStreamSuite(c, w)
		if err := ss.Run(); err != nil {
			t.Fatal(err)
		}
		return ss.served
	}
	want := served(1)
	if len(want) == 0 || len(want) == cfg.Prefixes {
		t.Fatalf("%d of %d clients served on day 0: the fixture needs both served and silent clients", len(want), cfg.Prefixes)
	}
	for _, workers := range []int{0, 2, 3, 7, 64} {
		if got := served(workers); !reflect.DeepEqual(got, want) {
			t.Fatalf("Workers=%d: day 0's served rows differ from a single worker's", workers)
		}
	}
}

// TestSiteDistanceTable pins Figure 8's table to the haversine it
// replaces, for every ordered pair of sites.
func TestSiteDistanceTable(t *testing.T) {
	res := testutil.SmallResult(t)
	ss := NewStreamSuite(res.Cfg, res.World)
	bb := res.World.Deployment.Backbone
	n := bb.NumSites()
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			want := geo.DistanceKm(bb.Site(topology.SiteID(a)).Metro.Point, bb.Site(topology.SiteID(b)).Metro.Point)
			if got := ss.siteKm[a*n+b]; got != want {
				t.Fatalf("sites %d→%d: table %v km, DistanceKm %v km", a, b, got, want)
			}
		}
	}
}

// TestFigure4UnweightedLinesSurviveZeroVolume pins Figure 4's error
// behaviour: when the volume weighting cannot be built, the unweighted
// lines still render, unchanged.
func TestFigure4UnweightedLinesSurviveZeroVolume(t *testing.T) {
	ss := testSuite(t).StreamSuite
	want := ss.Figure4()
	zero := *ss
	zero.served = append([]servedRow(nil), ss.served...)
	for i := range zero.served {
		zero.served[i].volume = 0
	}
	got := zero.Figure4()
	if len(got.Lines) != 0 {
		t.Fatalf("zero-volume Figure 4 reported %d headlines, want none", len(got.Lines))
	}
	var names []string
	for _, s := range got.Figure.Series {
		names = append(names, s.Name)
	}
	if !reflect.DeepEqual(names, []string{"clients past closest", "clients to front-end"}) {
		t.Fatalf("zero-volume Figure 4 drew %v, want the two unweighted lines", names)
	}
	for _, s := range got.Figure.Series {
		if !reflect.DeepEqual(s.Points, seriesPoints(t, want, s.Name)) {
			t.Fatalf("zero-volume %q differs from the weighted run's", s.Name)
		}
	}
}

func seriesPoints(t *testing.T, r Report, name string) []stats.SeriesPoint {
	t.Helper()
	for _, s := range r.Figure.Series {
		if s.Name == name {
			return s.Points
		}
	}
	t.Fatalf("%s has no series %q", r.ID, name)
	return nil
}
