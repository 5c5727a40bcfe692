package experiments

import (
	"slices"
	"strings"
	"testing"

	"anycastcdn/internal/beacon"
	"anycastcdn/internal/faults"
	"anycastcdn/internal/load"
	"anycastcdn/internal/sim"
	"anycastcdn/internal/testutil"
	"anycastcdn/internal/topology"
)

// busiestIngressMetro picks the peering metro carrying the most clients
// on a day of the baseline run, so a flap of it must shift catchments.
func busiestIngressMetro(t *testing.T, res *sim.Result, day int) string {
	t.Helper()
	counts := map[topology.SiteID]int{}
	for c := range res.Assignments {
		counts[res.Assignments[c][day].Ingress]++
	}
	best, bestN := topology.InvalidSite, 0
	for s, n := range counts {
		if n > bestN || (n == bestN && s < best) {
			best, bestN = s, n
		}
	}
	return res.World.Deployment.Backbone.Site(best).Metro.Name
}

// TestResilienceFlap is the headline acceptance case: a BGP flap of the
// busiest ingress must show a nonzero catchment shift and latency delta
// during its window and exact recovery to baseline after it.
func TestResilienceFlap(t *testing.T) {
	ing := busiestIngressMetro(t, testutil.SmallResult(t), 3)
	sc, err := faults.ParseScenario("flap " + ing + " day=3 for=2")
	if err != nil {
		t.Fatal(err)
	}
	r, err := Resilience(testutil.SmallConfig(1), sc)
	if err != nil {
		t.Fatal(err)
	}

	if len(r.Events) != 1 {
		t.Fatalf("report has %d events, want 1", len(r.Events))
	}
	imp := r.Events[0]
	if imp.PeakShiftFrac <= 0 {
		t.Fatalf("flap of busiest ingress %s produced zero catchment shift", ing)
	}
	if imp.BeaconDiffFrac <= 0 {
		t.Fatal("flap produced no beacon-level latency delta")
	}
	if len(r.ActiveDeltasMs) == 0 {
		t.Fatal("no latency deltas collected on fault-active days")
	}
	nonzero := false
	for _, d := range r.ActiveDeltasMs {
		if d != 0 {
			nonzero = true
			break
		}
	}
	if !nonzero {
		t.Fatal("latency-delta CDF is identically zero for a flap scenario")
	}
	if imp.RecoveryDays != 0 {
		t.Fatalf("flap recovery took %d days, want exact reconvergence the day after the window", imp.RecoveryDays)
	}
	if !r.Recovered() {
		t.Fatal("report does not show recovery to baseline")
	}
	for d := 0; d < 3; d++ {
		if r.ShiftFrac[d] != 0 || r.BeaconDiffFrac[d] != 0 {
			t.Fatalf("pre-event day %d shows divergence", d)
		}
	}
	for d := 5; d < r.Days; d++ {
		if r.ShiftFrac[d] != 0 || r.BeaconDiffFrac[d] != 0 {
			t.Fatalf("post-event day %d shows divergence; no recovery", d)
		}
	}

	rendered := r.Render()
	for _, want := range []string{"fault scenario impact", "flap " + ing, "anycast latency delta", "recovered to baseline"} {
		if !strings.Contains(rendered, want) {
			t.Fatalf("rendered report missing %q:\n%s", want, rendered)
		}
	}
	if fig := r.DeltaCDFFigure(); fig == nil {
		t.Fatal("DeltaCDFFigure is nil despite active-day deltas")
	}
}

// TestResilienceEmptyScenario pins the degenerate case: an empty
// scenario runs byte-identical to the fault-free baseline, so the
// comparison reports zero divergence everywhere.
func TestResilienceEmptyScenario(t *testing.T) {
	r, err := Resilience(testutil.SmallConfig(1), faults.Scenario{})
	if err != nil {
		t.Fatal(err)
	}
	for d := 0; d < r.Days; d++ {
		if r.ShiftFrac[d] != 0 || r.BeaconDiffFrac[d] != 0 || r.MeanAnycastDeltaMs[d] != 0 {
			t.Fatalf("empty scenario shows divergence on day %d", d)
		}
	}
	if len(r.ActiveDeltasMs) != 0 {
		t.Fatal("empty scenario collected active-day deltas")
	}
	if r.DeltaCDFFigure() != nil {
		t.Fatal("empty scenario has a delta CDF")
	}
	if !r.Recovered() {
		t.Fatal("empty scenario should count as recovered")
	}
	if r.Render() == "" {
		t.Fatal("empty report renders nothing")
	}
}

// TestPairStreams pins the lockstep contract: fn sees day d of both runs,
// in day order, while both are parked (pairing a run with itself, every
// pair must match in full); either run's error comes back under its
// run's name; and runs of different lengths are an error, whichever
// side ends first.
func TestPairStreams(t *testing.T) {
	cfg := testutil.TinyConfig(1)
	bw, err := sim.BuildWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fw, err := sim.BuildWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	bad := cfg
	bad.LoadManager = &load.ManagerConfig{Policy: 99}
	streamErr := sim.StreamWorld(bad, bw, func(sim.DayResult) error { return nil })
	if streamErr == nil {
		t.Fatal("StreamWorld accepted an unknown load policy")
	}
	short := cfg
	short.Days = 2
	for _, tc := range []struct {
		name            string
		baseCfg, fltCfg sim.Config
		days            []int
		err             string
	}{
		{"paired", cfg, cfg, []int{0, 1, 2, 3, 4}, ""},
		{"baseline fails", bad, cfg, nil, "experiments: baseline run: " + streamErr.Error()},
		{"faulted fails", cfg, bad, nil, "experiments: faulted run: " + streamErr.Error()},
		{"baseline ends first", short, cfg, []int{0, 1}, errUnpaired.Error()},
		{"faulted ends first", cfg, short, []int{0, 1}, errUnpaired.Error()},
	} {
		var days []int
		err := pairStreams(tc.baseCfg, bw, tc.fltCfg, fw, func(base, faulted sim.DayResult) {
			if base.Day != faulted.Day || base.Day != len(days) {
				t.Errorf("%s: call %d paired baseline day %d with faulted day %d", tc.name, len(days), base.Day, faulted.Day)
			}
			if !slices.Equal(base.Passive, faulted.Passive) || !slices.Equal(base.Assignments, faulted.Assignments) ||
				!slices.Equal(base.Beacons, faulted.Beacons) {
				t.Errorf("%s: day %d: the paired days of one config differ", tc.name, base.Day)
			}
			days = append(days, base.Day)
		})
		if (err == nil) != (tc.err == "") || err != nil && err.Error() != tc.err {
			t.Errorf("%s: error %v, want %q", tc.name, err, tc.err)
		}
		if !slices.Equal(days, tc.days) {
			t.Errorf("%s: paired days %v, want %v", tc.name, days, tc.days)
		}
	}
}

// TestResilienceSurge compares runs whose beacon counts differ: a surge
// scales a region's query counts, and with them its clients' beacon
// executions, up (qps=5) or to nothing (qps=0). Executions pair by client
// and query, so each execution only one run made counts as diverged,
// every paired one carries no latency change, and the world matches the
// baseline again the day after the window.
func TestResilienceSurge(t *testing.T) {
	cfg := sim.DefaultConfig(1)
	cfg.Prefixes, cfg.Days = 600, 6
	base, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	perClient := func(ms []beacon.Measurement) map[uint64]int {
		n := map[uint64]int{}
		for _, m := range ms {
			n[m.ClientID]++
		}
		return n
	}
	for _, qps := range []string{"5", "0"} {
		t.Run("qps="+qps, func(t *testing.T) {
			sc, err := faults.ParseScenario("surge europe day=2 for=2 qps=" + qps)
			if err != nil {
				t.Fatal(err)
			}
			fcfg := cfg
			fcfg.Scenario = &sc
			faulted, err := sim.Run(fcfg)
			if err != nil {
				t.Fatal(err)
			}
			r, err := Resilience(cfg, sc)
			if err != nil {
				t.Fatal(err)
			}
			for d := 0; d < cfg.Days; d++ {
				nb, nf := perClient(base.Beacons[d]), perClient(faulted.Beacons[d])
				unpaired, total := 0, 0
				for c, b := range nb {
					f := nf[c]
					unpaired += max(b, f) - min(b, f)
					total += max(b, f)
				}
				for c, f := range nf {
					if _, ok := nb[c]; !ok {
						unpaired += f
						total += f
					}
				}
				if surged := d == 2 || d == 3; surged != (unpaired > 0) {
					t.Fatalf("day %d: %d unpaired executions, surge active %v", d, unpaired, surged)
				}
				want := 0.0
				if total > 0 {
					want = float64(unpaired) / float64(total)
				}
				if r.BeaconDiffFrac[d] != want {
					t.Fatalf("day %d: BeaconDiffFrac %v, want %d unpaired of %d = %v", d, r.BeaconDiffFrac[d], unpaired, total, want)
				}
				if r.MeanAnycastDeltaMs[d] != 0 || r.ShiftFrac[d] != 0 {
					t.Fatalf("day %d: mean Δ %v, shift %v; a surge without load management moves neither", d, r.MeanAnycastDeltaMs[d], r.ShiftFrac[d])
				}
			}
			if len(r.ActiveDeltasMs) == 0 {
				t.Fatal("no paired executions on the surge days")
			}
			for _, delta := range r.ActiveDeltasMs {
				if delta != 0 {
					t.Fatalf("paired execution changed by %v ms", delta)
				}
			}
			if imp := r.Events[0]; imp.BeaconDiffFrac <= 0 || imp.MeanAnycastDeltaMs != 0 || imp.RecoveryDays != 0 {
				t.Fatalf("event impact %+v, want diverged executions, Δ 0 and recovery +0d", imp)
			}
		})
	}
}
