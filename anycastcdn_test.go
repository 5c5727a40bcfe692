package anycastcdn

import (
	"testing"

	"anycastcdn/internal/testutil"
)

func smallConfig(seed uint64) Config {
	return testutil.TinyConfig(seed)
}

func TestPublicAPIRoundTrip(t *testing.T) {
	cfg := smallConfig(1)
	w, err := BuildWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	suite := NewStreamSuite(cfg, w)
	beacons := 0
	err = StreamWorld(cfg, w, func(d DayResult) error {
		beacons += len(d.Beacons)
		return suite.Observe(d)
	})
	if err != nil {
		t.Fatal(err)
	}
	if beacons == 0 {
		t.Fatal("no beacons")
	}
	r := suite.Figure3()
	if r.Figure == nil || len(r.Figure.Series) == 0 {
		t.Fatal("figure 3 empty")
	}
}

func TestPublicPredictorFlow(t *testing.T) {
	cfg := smallConfig(2)
	w, err := BuildWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Observations copy what they keep out of each day's reused buffers.
	obs := make([][]Observation, 2)
	err = StreamWorld(cfg, w, func(d DayResult) error {
		if d.Day < len(obs) {
			for _, m := range d.Beacons {
				obs[d.Day] = append(obs[d.Day], ObservationsFromMeasurement(m)...)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	vols := make(map[uint64]float64, len(w.Population.Clients))
	for _, c := range w.Population.Clients {
		vols[c.ID] = c.Volume
	}
	p := NewPredictor(DefaultPredictorConfig())
	pred := p.Train(obs[0], ByPrefix)
	evals := Evaluator{Percentile: 0.5, MinSamples: 2}.Evaluate(pred, obs[1], vols)
	if len(evals) == 0 {
		t.Fatal("no evaluations")
	}
	for _, e := range evals {
		if e.Predicted.Anycast && e.ImprovementMs != 0 {
			t.Fatal("anycast prediction must evaluate to zero")
		}
	}
}

func TestPublicTracer(t *testing.T) {
	w, err := BuildWorld(smallConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTracer(w)
	c := w.Population.Clients[0]
	d := tr.Diagnose(RoutingClient{PrefixID: c.ID, Point: c.Point, ISP: c.ISP}, 0)
	if d.Category == "" || len(d.AnycastTrace.Hops) < 2 {
		t.Fatalf("empty diagnosis: %+v", d)
	}
}

func TestPublicCatalogAndTable(t *testing.T) {
	if len(WorldMetros()) < 150 {
		t.Fatal("catalog too small")
	}
	if r := CDNSizeTable(); r.Table == nil {
		t.Fatal("no CDN table")
	}
}

func TestPublicConstants(t *testing.T) {
	if AnycastTarget.String() != "anycast" {
		t.Fatal("anycast target")
	}
	if ByPrefix == ByLDNS {
		t.Fatal("groupings must differ")
	}
	if MetricP25 >= MetricMedian {
		t.Fatal("metric ordering")
	}
}

func TestPublicFaultInjectionFlow(t *testing.T) {
	sc, err := ParseScenario("inflate europe day=1 for=2 ms=30")
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.Events) != 1 || sc.Events[0].Kind != FaultInflate {
		t.Fatalf("parsed scenario %+v", sc)
	}
	r, err := Resilience(smallConfig(4), sc)
	if err != nil {
		t.Fatal(err)
	}
	diverged := false
	for _, f := range r.BeaconDiffFrac {
		if f > 0 {
			diverged = true
		}
	}
	if !diverged {
		t.Fatal("inflate scenario produced no beacon divergence")
	}
	if !r.Recovered() {
		t.Fatal("world did not recover after the inflate window")
	}
	if r.Render() == "" {
		t.Fatal("empty resilience render")
	}
}

func TestPublicStreamingFlow(t *testing.T) {
	cfg := smallConfig(5)
	w, err := BuildWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ss := NewStreamSuite(cfg, w)
	days := 0
	err = StreamWorld(cfg, w, func(d DayResult) error {
		days++
		return ss.Observe(d)
	})
	if err != nil {
		t.Fatal(err)
	}
	if days != cfg.Days {
		t.Fatalf("streamed %d days, want %d", days, cfg.Days)
	}
	if out := ss.Figure4().Render(); len(out) < 50 {
		t.Fatalf("streaming Figure 4 render too small:\n%s", out)
	}
}
