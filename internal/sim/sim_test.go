package sim_test

import (
	"testing"

	"anycastcdn/internal/geo"
	"anycastcdn/internal/sim"
	"anycastcdn/internal/testutil"
)

func TestBuildWorldErrors(t *testing.T) {
	cfg := testutil.SmallConfig(1)
	cfg.Prefixes = 0
	if _, err := sim.BuildWorld(cfg); err == nil {
		t.Error("zero prefixes should fail")
	}
	cfg = testutil.SmallConfig(1)
	cfg.Days = 0
	if _, err := sim.BuildWorld(cfg); err == nil {
		t.Error("zero days should fail")
	}
}

func TestRunShape(t *testing.T) {
	res := testutil.SmallResult(t)
	cfg := res.Cfg
	if len(res.Beacons) != cfg.Days {
		t.Fatalf("beacon days = %d, want %d", len(res.Beacons), cfg.Days)
	}
	if res.TotalBeacons() == 0 {
		t.Fatal("no beacons executed")
	}
	if res.Passive.Len() != cfg.Prefixes*cfg.Days {
		t.Fatalf("passive log has %d records, want %d", res.Passive.Len(), cfg.Prefixes*cfg.Days)
	}
	if len(res.Assignments) != cfg.Prefixes {
		t.Fatalf("assignments for %d clients, want %d", len(res.Assignments), cfg.Prefixes)
	}
	for day, ms := range res.Beacons {
		for _, m := range ms {
			if m.Day != day {
				t.Fatalf("measurement filed under day %d has Day=%d", day, m.Day)
			}
			if m.Anycast.RTTms <= 0 {
				t.Fatal("non-positive anycast RTT")
			}
		}
	}
}

func TestRunDeterministicAcrossWorkers(t *testing.T) {
	cfg := testutil.SmallConfig(3)
	cfg.Workers = 1
	a, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 8
	b, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalBeacons() != b.TotalBeacons() {
		t.Fatalf("beacon counts differ across worker counts: %d vs %d",
			a.TotalBeacons(), b.TotalBeacons())
	}
	for day := range a.Beacons {
		if len(a.Beacons[day]) != len(b.Beacons[day]) {
			t.Fatalf("day %d beacon count differs", day)
		}
		for i := range a.Beacons[day] {
			if a.Beacons[day][i] != b.Beacons[day][i] {
				t.Fatalf("day %d measurement %d differs across worker counts", day, i)
			}
		}
	}
	for i := range a.Assignments {
		for d := range a.Assignments[i] {
			if a.Assignments[i][d] != b.Assignments[i][d] {
				t.Fatalf("assignment differs for client %d day %d", i, d)
			}
		}
	}
}

func TestSeedChangesResults(t *testing.T) {
	a, err := sim.Run(testutil.SmallConfig(10))
	if err != nil {
		t.Fatal(err)
	}
	b, err := sim.Run(testutil.SmallConfig(11))
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalBeacons() == b.TotalBeacons() {
		// Counts could coincide; compare an actual measurement stream.
		same := true
		for d := range a.Beacons {
			if len(a.Beacons[d]) != len(b.Beacons[d]) {
				same = false
				break
			}
			for i := range a.Beacons[d] {
				if a.Beacons[d][i] != b.Beacons[d][i] {
					same = false
					break
				}
			}
		}
		if same {
			t.Fatal("different seeds produced identical runs")
		}
	}
}

func TestVolumes(t *testing.T) {
	res := testutil.SmallResult(t)
	vols := res.Volumes()
	if len(vols) != len(res.World.Population.Clients) {
		t.Fatalf("volumes for %d clients, want %d", len(vols), len(res.World.Population.Clients))
	}
	for id, v := range vols {
		if v <= 0 {
			t.Fatalf("client %d has non-positive volume", id)
		}
	}
}

func TestPassiveLogConsistentWithAssignments(t *testing.T) {
	res := testutil.SmallResult(t)
	for _, day := range res.Passive {
		for _, r := range day {
			if got := res.Assignments[r.ClientID][r.Day].FrontEnd; got != r.FrontEnd {
				t.Fatalf("passive log FE %d != assignment FE %d for client %d day %d",
					r.FrontEnd, got, r.ClientID, r.Day)
			}
			if !res.World.Deployment.Backbone.Site(r.FrontEnd).FrontEnd {
				t.Fatal("passive log references a non-front-end site")
			}
		}
	}
}

func TestHeavyClientsRunMoreBeacons(t *testing.T) {
	res := testutil.SmallResult(t)
	perClient := map[uint64]int{}
	for _, day := range res.Beacons {
		for _, m := range day {
			perClient[m.ClientID]++
		}
	}
	// Compare the top-volume client against the bottom-volume client.
	var top, bottom uint64
	topV, bottomV := -1.0, 1e18
	for _, c := range res.World.Population.Clients {
		if c.Volume > topV {
			top, topV = c.ID, c.Volume
		}
		if c.Volume < bottomV {
			bottom, bottomV = c.ID, c.Volume
		}
	}
	if perClient[top] <= perClient[bottom] {
		t.Fatalf("top-volume client ran %d beacons, bottom %d; sampling should follow volume",
			perClient[top], perClient[bottom])
	}
}

func TestRegionsPresentInBeacons(t *testing.T) {
	res := testutil.SmallResult(t)
	regions := map[geo.Region]bool{}
	for _, day := range res.Beacons {
		for _, m := range day {
			regions[m.Region] = true
		}
	}
	if !regions[geo.RegionNorthAmerica] || !regions[geo.RegionEurope] {
		t.Fatalf("beacon regions missing NA/EU: %v", regions)
	}
}

func BenchmarkRunSmall(b *testing.B) {
	cfg := testutil.SmallConfig(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func TestBuildWorldDeploymentPresets(t *testing.T) {
	cfg := testutil.SmallConfig(30)
	def, err := sim.BuildWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Deployment = "sparse"
	sparse, err := sim.BuildWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sparse.Deployment.NumFrontEnds() >= def.Deployment.NumFrontEnds() {
		t.Fatalf("sparse deployment (%d FEs) not smaller than default (%d)",
			sparse.Deployment.NumFrontEnds(), def.Deployment.NumFrontEnds())
	}
	cfg.Deployment = "nonsense"
	if _, err := sim.BuildWorld(cfg); err == nil {
		t.Fatal("unknown preset should fail")
	}
}
