package sim_test

import (
	"testing"

	"anycastcdn/internal/load"
	"anycastcdn/internal/sim"
	"anycastcdn/internal/testutil"
)

// TestBuildShardWorldStreamsIdentically is the memory-scaling contract of
// the distributed layer: a world built for just [lo, hi) must stream
// that range byte-identically to the full build — passive rows,
// assignments, beacons (whose candidate sets depend on resolver-ID-keyed
// geolocation draws, the part a naive shard build gets wrong) and, with
// a load manager and shared capacities, utilization snapshots.
func TestBuildShardWorldStreamsIdentically(t *testing.T) {
	cfg := managedConfig(t, 11, load.FastRoute)
	full, err := sim.BuildWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := len(full.Population.Clients)
	lo, hi := n/3, n-n/4

	// Managed runs need fleet-derived capacities on both sides: a shard
	// world cannot derive the full-population matrix locally, which is
	// exactly why the distributed protocol ships capacities.
	m, err := sim.ShardLoadMatrix(cfg, full, 0, n)
	if err != nil {
		t.Fatal(err)
	}
	caps, err := sim.CapsFromLoadMatrix(cfg, full, m)
	if err != nil {
		t.Fatal(err)
	}

	shardW, err := sim.BuildShardWorld(cfg, lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	if got := int(shardW.Population.Base); got != lo {
		t.Fatalf("shard world base %d, want %d", got, lo)
	}
	if got := len(shardW.Population.Clients); got != hi-lo {
		t.Fatalf("shard world holds %d clients, want %d", got, hi-lo)
	}
	for i, c := range shardW.Population.Clients {
		if c != full.Population.Clients[lo+i] {
			t.Fatalf("shard client %d differs from full client %d", i, lo+i)
		}
	}
	if lr, lf := len(shardW.Mapping.Resolvers), len(full.Mapping.Resolvers); lr != lf {
		t.Fatalf("shard world interned %d resolvers, full build %d", lr, lf)
	}

	opts := sim.ShardOpts{Lo: lo, Hi: hi,
		ExchangeLoad: func([]float64) ([]float64, error) { return caps, nil }}
	ref := capture(cfg.Days)
	if err := sim.StreamShard(cfg, full, opts, ref.observe); err != nil {
		t.Fatal(err)
	}
	got := capture(cfg.Days)
	if err := sim.StreamShard(cfg, shardW, opts, got.observe); err != nil {
		t.Fatal(err)
	}
	for d := 0; d < cfg.Days; d++ {
		for i := range ref.passive[d] {
			if got.passive[d][i] != ref.passive[d][i] {
				t.Fatalf("day %d passive %d differs:\n%+v\nvs\n%+v",
					d, i, got.passive[d][i], ref.passive[d][i])
			}
			if got.assigns[d][i] != ref.assigns[d][i] {
				t.Fatalf("day %d assignment %d differs", d, i)
			}
		}
		if len(got.beacons[d]) != len(ref.beacons[d]) {
			t.Fatalf("day %d: %d beacons, want %d", d, len(got.beacons[d]), len(ref.beacons[d]))
		}
		for i := range ref.beacons[d] {
			if got.beacons[d][i] != ref.beacons[d][i] {
				t.Fatalf("day %d beacon %d differs:\n%+v\nvs\n%+v",
					d, i, got.beacons[d][i], ref.beacons[d][i])
			}
		}
		for i := range ref.utils[d] {
			if got.utils[d][i] != ref.utils[d][i] {
				t.Fatalf("day %d utilization %d differs", d, i)
			}
		}
	}
}

// TestBuildShardWorldValidates pins range validation and the guards that
// keep a shard world off the paths that assume a full population.
func TestBuildShardWorldValidates(t *testing.T) {
	cfg := testutil.TinyConfig(7)
	for _, b := range [][2]int{{-1, 5}, {5, 5}, {5, 4}, {0, cfg.Prefixes + 1}} {
		if _, err := sim.BuildShardWorld(cfg, b[0], b[1]); err == nil {
			t.Errorf("shard world range [%d, %d) accepted", b[0], b[1])
		}
	}
	w, err := sim.BuildShardWorld(cfg, 100, 300)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.RunWorld(cfg, w); err == nil {
		t.Error("batch RunWorld accepted a shard world")
	}
	fn := func(sim.DayResult) error { return nil }
	// Ranges poking outside the materialized window must be rejected.
	for _, b := range [][2]int{{0, 300}, {100, 301}, {99, 200}} {
		if err := sim.StreamShard(cfg, w, sim.ShardOpts{Lo: b[0], Hi: b[1]}, fn); err == nil {
			t.Errorf("stream range [%d, %d) accepted over world [100, 300)", b[0], b[1])
		}
	}
	// StreamWorld over a shard world streams exactly its range.
	days := 0
	if err := sim.StreamWorld(cfg, w, func(d sim.DayResult) error {
		if len(d.Passive) != 200 {
			t.Fatalf("day %d streamed %d records, want the shard's 200", d.Day, len(d.Passive))
		}
		days++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if days != cfg.Days {
		t.Fatalf("streamed %d days, want %d", days, cfg.Days)
	}
}
