package sim_test

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"anycastcdn/internal/faults"
	"anycastcdn/internal/load"
	"anycastcdn/internal/sim"
	"anycastcdn/internal/testutil"
)

// The load-aware replay pack: the load-management subsystem must preserve
// every replay guarantee the plain simulator gives — byte-identical
// reruns, worker-schedule independence, Run/Stream lockstep — and an
// inactive or no-op configuration must leave runs byte-identical to the
// unmanaged simulator.

// managedConfig is the shared surge + FastRoute configuration.
func managedConfig(t *testing.T, seed uint64, policy load.Policy) sim.Config {
	t.Helper()
	sc, err := faults.ParseScenario("surge south-america day=3 for=3 qps=6")
	if err != nil {
		t.Fatal(err)
	}
	cfg := testutil.SmallConfig(seed)
	cfg.Scenario = &sc
	cfg.LoadManager = &load.ManagerConfig{Policy: policy}
	return cfg
}

// sameResults fails on the first difference between two managed runs,
// including the per-day utilization snapshots.
func sameResults(t *testing.T, label string, a, b *sim.Result) {
	t.Helper()
	for day := range a.Beacons {
		if len(a.Beacons[day]) != len(b.Beacons[day]) {
			t.Fatalf("%s: day %d beacon counts differ", label, day)
		}
		for i := range a.Beacons[day] {
			if a.Beacons[day][i] != b.Beacons[day][i] {
				t.Fatalf("%s: day %d beacon %d differs:\n%+v\nvs\n%+v",
					label, day, i, a.Beacons[day][i], b.Beacons[day][i])
			}
		}
	}
	if a.Passive.Len() != b.Passive.Len() {
		t.Fatalf("%s: passive lengths differ: %d vs %d", label, a.Passive.Len(), b.Passive.Len())
	}
	for d := range a.Passive {
		for i := range a.Passive[d] {
			if a.Passive[d][i] != b.Passive[d][i] {
				t.Fatalf("%s: day %d passive record %d differs:\n%+v\nvs\n%+v", label, d, i, a.Passive[d][i], b.Passive[d][i])
			}
		}
	}
	for c := range a.Assignments {
		for d := range a.Assignments[c] {
			if a.Assignments[c][d] != b.Assignments[c][d] {
				t.Fatalf("%s: assignment client %d day %d differs", label, c, d)
			}
		}
	}
	if len(a.Utilization) != len(b.Utilization) {
		t.Fatalf("%s: utilization day counts differ", label)
	}
	for d := range a.Utilization {
		if len(a.Utilization[d]) != len(b.Utilization[d]) {
			t.Fatalf("%s: day %d utilization site counts differ", label, d)
		}
		for i := range a.Utilization[d] {
			if a.Utilization[d][i] != b.Utilization[d][i] {
				t.Fatalf("%s: day %d site %d utilization differs:\n%+v\nvs\n%+v",
					label, d, i, a.Utilization[d][i], b.Utilization[d][i])
			}
		}
	}
}

func TestManagedReplayIdentical(t *testing.T) {
	for _, policy := range []load.Policy{load.Static, load.Withdraw, load.FastRoute} {
		cfg := managedConfig(t, 7, policy)
		cfg.Workers = 4
		a, err := sim.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		b, err := sim.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sameResults(t, policy.String(), a, b)
	}
}

// TestManagedWorkersInvariance pins schedule independence under
// load-aware routing: the FastRoute redirection draw comes from a
// (client, day)-keyed substream, so the worker count cannot change a
// single record.
func TestManagedWorkersInvariance(t *testing.T) {
	cfg := managedConfig(t, 7, load.FastRoute)
	cfg.Workers = 1
	serial, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = runtime.GOMAXPROCS(0)
	parallel, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, "workers 1 vs max", serial, parallel)
}

// TestManagedRunMatchesStream is the layout test of RunWorld, the stream
// materializer: every streamed day must land at its documented Result
// position — passive row i*Days+d, Assignments[i][d], Beacons[d],
// Utilization[d] — and an unmanaged run must leave Utilization nil.
func TestManagedRunMatchesStream(t *testing.T) {
	unmanaged := managedConfig(t, 7, load.FastRoute)
	unmanaged.LoadManager = nil
	for _, tc := range []struct {
		name string
		cfg  sim.Config
	}{
		{"managed", managedConfig(t, 7, load.FastRoute)},
		{"unmanaged", unmanaged},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			full, err := sim.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(full.Beacons) != cfg.Days || full.Passive.Len() != cfg.Prefixes*cfg.Days || len(full.Assignments) != cfg.Prefixes {
				t.Fatalf("result shape: %d beacon days, %d passive rows, %d assignment rows",
					len(full.Beacons), full.Passive.Len(), len(full.Assignments))
			}
			if managed := cfg.LoadManager != nil; managed != (full.Utilization != nil) {
				t.Fatalf("managed=%v but Utilization nil=%v", managed, full.Utilization == nil)
			}
			days := 0
			err = sim.Stream(cfg, func(d sim.DayResult) error {
				if d.Day != days {
					t.Fatalf("day %d delivered out of order (want %d)", d.Day, days)
				}
				if len(d.Beacons) != len(full.Beacons[d.Day]) {
					t.Fatalf("day %d: %d streamed beacons, run has %d", d.Day, len(d.Beacons), len(full.Beacons[d.Day]))
				}
				for i := range d.Beacons {
					if d.Beacons[i] != full.Beacons[d.Day][i] {
						t.Fatalf("day %d beacon %d differs between Stream and Run", d.Day, i)
					}
				}
				for i := range d.Passive {
					if d.Passive[i] != full.Passive[d.Day][i] {
						t.Fatalf("day %d passive %d differs between Stream and Run", d.Day, i)
					}
				}
				for i := range d.Assignments {
					if d.Assignments[i] != full.Assignments[i][d.Day] {
						t.Fatalf("day %d assignment %d differs between Stream and Run", d.Day, i)
					}
				}
				if full.Utilization != nil && len(d.Utilization) != len(full.Utilization[d.Day]) {
					t.Fatalf("day %d: %d streamed utilization rows, run has %d", d.Day, len(d.Utilization), len(full.Utilization[d.Day]))
				}
				for i := range d.Utilization {
					if d.Utilization[i] != full.Utilization[d.Day][i] {
						t.Fatalf("day %d utilization %d differs between Stream and Run", d.Day, i)
					}
				}
				days++
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if days != cfg.Days {
				t.Fatalf("stream delivered %d days, want %d", days, cfg.Days)
			}
		})
	}
}

// TestManagerWithoutSurgeIsByteIdentical: with no faults the derived
// capacities carry 1.4x headroom over every site's peak day, so the
// watermark controller never sheds and a FastRoute-managed run must be
// byte-identical (passive, beacons, assignments) to the unmanaged one —
// the subsystem only pays for itself when something is actually on fire.
func TestManagerWithoutSurgeIsByteIdentical(t *testing.T) {
	plain, err := sim.Run(testutil.SmallConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, policy := range []load.Policy{load.Static, load.FastRoute, load.Withdraw} {
		cfg := testutil.SmallConfig(1)
		cfg.LoadManager = &load.ManagerConfig{Policy: policy}
		managed, err := sim.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for d := range plain.Passive {
			for i := range plain.Passive[d] {
				if plain.Passive[d][i] != managed.Passive[d][i] {
					t.Fatalf("%s: day %d passive record %d differs from unmanaged run:\n%+v\nvs\n%+v",
						policy, d, i, plain.Passive[d][i], managed.Passive[d][i])
				}
			}
		}
		for day := range plain.Beacons {
			for i := range plain.Beacons[day] {
				if plain.Beacons[day][i] != managed.Beacons[day][i] {
					t.Fatalf("%s: day %d beacon %d differs from unmanaged run", policy, day, i)
				}
			}
		}
		for c := range plain.Assignments {
			for d := range plain.Assignments[c] {
				if plain.Assignments[c][d] != managed.Assignments[c][d] {
					t.Fatalf("%s: assignment client %d day %d differs from unmanaged run", policy, c, d)
				}
			}
		}
		// The manager still reports utilization even when it never acts.
		if len(managed.Utilization) != cfg.Days {
			t.Fatalf("%s: managed run has %d utilization days, want %d", policy, len(managed.Utilization), cfg.Days)
		}
	}
}

// TestFastRouteRedirectsOnlyFromSurge: before the surge window nothing
// sheds, so passive records sit on their anycast front-end; during it the
// overloaded region's records visibly move.
func TestFastRouteRedirectsOnlyFromSurge(t *testing.T) {
	cfg := managedConfig(t, 1, load.FastRoute)
	res, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	redirectsBefore, redirectsDuring := 0, 0
	for i := range res.Assignments {
		for d := 0; d < cfg.Days; d++ {
			r := res.Passive[d][i]
			if r.FrontEnd == res.Assignments[i][d].FrontEnd {
				continue
			}
			if d < 3 {
				redirectsBefore++
			} else {
				redirectsDuring++
			}
		}
	}
	if redirectsBefore != 0 {
		t.Errorf("%d client-days redirected before the surge window", redirectsBefore)
	}
	if redirectsDuring == 0 {
		t.Error("no client-day redirected during or after the surge window")
	}
}

// TestQueriesColumnMatchesDraw: a managed stream keeps each client-day's
// queries draw from its schedule pass in a 16-bit column and reads it in
// the day pass; an unmanaged one has no column and draws in the day pass.
// Load management moves where queries are served, never how many, so the
// two must agree on every record's queries, every assignment and every
// beacon at Workers 1 and 4. The volume is raised until over 1% of
// client-days saturate the column, so the test pins both the stored
// counts and the redraw of a saturated entry.
func TestQueriesColumnMatchesDraw(t *testing.T) {
	cfg := managedConfig(t, 3, load.FastRoute)
	cfg.QueriesPerVolume = 600
	w, err := sim.BuildWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	unmanaged := cfg
	unmanaged.LoadManager = nil
	for _, workers := range []int{1, 4} {
		cfg.Workers, unmanaged.Workers = workers, workers
		column, err := sim.RunWorld(cfg, w)
		if err != nil {
			t.Fatal(err)
		}
		drawn, err := sim.RunWorld(unmanaged, w)
		if err != nil {
			t.Fatal(err)
		}
		// Only the serving front-ends may differ: clear them on both
		// sides, and the rest of the runs must match.
		redirected := 0
		for d := range column.Passive {
			for i, r := range column.Passive[d] {
				if r != drawn.Passive[d][i] {
					redirected++
				}
				column.Passive[d][i] = servedAnywhere(r)
				drawn.Passive[d][i] = servedAnywhere(drawn.Passive[d][i])
			}
		}
		if redirected == 0 {
			t.Fatalf("workers=%d: the managed run redirected nothing", workers)
		}
		column.Utilization = nil
		sameResults(t, fmt.Sprintf("workers=%d: column vs draw", workers), column, drawn)
		// Outside the surge a record's queries are the fault-free draw.
		saturated, unsurged := 0, 0
		for _, day := range column.Passive {
			for _, r := range day {
				if w.Faults.SurgeFactor(w.Population.Client(r.ClientID).Region, r.Day) != 1 {
					continue
				}
				unsurged++
				if r.Queries >= math.MaxUint16 {
					saturated++
				}
			}
		}
		share := float64(saturated) / float64(unsurged)
		t.Logf("workers=%d: %d of %d unsurged client-days (%.2f%%) saturate the column", workers, saturated, unsurged, 100*share)
		if share < 0.01 {
			t.Fatalf("workers=%d: %d of %d unsurged client-days (%.2f%%) reach 65,535 queries; the column's saturation is barely exercised",
				workers, saturated, unsurged, 100*share)
		}
	}
}

// servedAnywhere clears the fields of a record that load management may
// move: the serving front-ends.
func servedAnywhere(r sim.DayRecord) sim.DayRecord {
	r.FrontEnd, r.PrevFrontEnd = 0, 0
	return r
}
