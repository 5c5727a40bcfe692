package sim_test

import (
	"runtime"
	"testing"

	"anycastcdn/internal/sim"
	"anycastcdn/internal/testutil"
)

// TestParallelMatchesSerial pins the schedule-independence invariant from
// the other direction than TestReplayIdentical: a fully serial run
// (Workers=1) and a maximally parallel run (Workers=GOMAXPROCS) of the
// same config must produce byte-identical Results. Per-entity substream
// derivation — not run ordering — is the only source of randomness, so
// the reduce must also merge worker outputs in a deterministic order.
func TestParallelMatchesSerial(t *testing.T) {
	cfg := testutil.SmallConfig(33)

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

	if serial.TotalBeacons() != parallel.TotalBeacons() {
		t.Fatalf("beacon totals differ: serial %d vs parallel %d",
			serial.TotalBeacons(), parallel.TotalBeacons())
	}
	if len(serial.Beacons) != len(parallel.Beacons) {
		t.Fatalf("day counts differ: %d vs %d", len(serial.Beacons), len(parallel.Beacons))
	}
	for day := range serial.Beacons {
		if len(serial.Beacons[day]) != len(parallel.Beacons[day]) {
			t.Fatalf("day %d beacon count differs: serial %d vs parallel %d",
				day, len(serial.Beacons[day]), len(parallel.Beacons[day]))
		}
		for i := range serial.Beacons[day] {
			if serial.Beacons[day][i] != parallel.Beacons[day][i] {
				t.Fatalf("day %d beacon %d differs:\nserial   %+v\nparallel %+v",
					day, i, serial.Beacons[day][i], parallel.Beacons[day][i])
			}
		}
	}

	if serial.Passive.Len() != parallel.Passive.Len() {
		t.Fatalf("passive log lengths differ: serial %d vs parallel %d",
			serial.Passive.Len(), parallel.Passive.Len())
	}
	for d := range serial.Passive {
		for i := range serial.Passive[d] {
			if serial.Passive[d][i] != parallel.Passive[d][i] {
				t.Fatalf("day %d passive record %d differs:\nserial   %+v\nparallel %+v",
					d, i, serial.Passive[d][i], parallel.Passive[d][i])
			}
		}
	}

	if len(serial.Assignments) != len(parallel.Assignments) {
		t.Fatal("assignment counts differ")
	}
	for c := range serial.Assignments {
		for d := range serial.Assignments[c] {
			if serial.Assignments[c][d] != parallel.Assignments[c][d] {
				t.Fatalf("assignment for client %d day %d differs", c, d)
			}
		}
	}
}

// BenchmarkRunWorld measures the simulation hot path end to end —
// BuildWorld excluded, so the timing isolates the per-client day loop and
// the pre-sized reduce — on DefaultConfig at a reduced prefix count.
func BenchmarkRunWorld(b *testing.B) {
	cfg := sim.DefaultConfig(3)
	cfg.Prefixes = 1000
	w, err := sim.BuildWorld(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sim.RunWorld(cfg, w)
		if err != nil {
			b.Fatal(err)
		}
		if res.TotalBeacons() == 0 {
			b.Fatal("no beacons")
		}
	}
}
