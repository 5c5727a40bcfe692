package sim_test

import (
	"errors"
	"runtime"
	"testing"

	"anycastcdn/internal/faults"
	"anycastcdn/internal/load"
	"anycastcdn/internal/sim"
	"anycastcdn/internal/testutil"
)

func TestFrontEndChanged(t *testing.T) {
	r := sim.DayRecord{Switched: true, PrevFrontEnd: 1, FrontEnd: 2}
	if !r.FrontEndChanged() {
		t.Fatal("switch with different FE should count")
	}
	r = sim.DayRecord{Switched: true, PrevFrontEnd: 2, FrontEnd: 2}
	if r.FrontEndChanged() {
		t.Fatal("ingress-only switch should not count as a front-end change")
	}
	r = sim.DayRecord{Switched: false, PrevFrontEnd: 1, FrontEnd: 2}
	if r.FrontEndChanged() {
		t.Fatal("no switch event means no change")
	}
}

func TestStreamStopsOnError(t *testing.T) {
	cfg := testutil.SmallConfig(23)
	sentinel := errors.New("stop")
	calls := 0
	err := sim.Stream(cfg, func(d sim.DayResult) error {
		calls++
		if d.Day == 2 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want sentinel", err)
	}
	if calls != 3 {
		t.Fatalf("stream continued after error: %d calls", calls)
	}
}

func TestStreamNilFn(t *testing.T) {
	if err := sim.Stream(testutil.SmallConfig(24), nil); err == nil {
		t.Fatal("nil fn should fail")
	}
}

// BenchmarkStreamWorld measures the streaming hot path end to end —
// BuildWorld excluded, mirroring BenchmarkRunWorld — on DefaultConfig at
// a reduced prefix count. Its B/op is the per-run cost of the reused day
// buffers plus the per-client-day simulation work; the CI gate pins it.
func BenchmarkStreamWorld(b *testing.B) {
	cfg := sim.DefaultConfig(3)
	cfg.Prefixes = 1000
	w, err := sim.BuildWorld(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		beacons := 0
		err := sim.StreamWorld(cfg, w, func(d sim.DayResult) error {
			beacons += len(d.Beacons)
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
		if beacons == 0 {
			b.Fatal("no beacons")
		}
	}
}

// BenchmarkStreamDay measures the passive day pass — the schedule pass
// and the per-client-day logging of a beacons-off month, on every core —
// with the world built before the timer starts. The other simulation
// benchmarks are dominated by beacon execution; this is the one that
// moves with the per-client-day work.
func BenchmarkStreamDay(b *testing.B) {
	cfg := sim.DefaultConfig(25)
	cfg.Prefixes = 50_000
	cfg.BeaconSampleRate = 0
	cfg.Workers = runtime.GOMAXPROCS(0)
	w, err := sim.BuildWorld(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		records := 0
		err := sim.StreamWorld(cfg, w, func(d sim.DayResult) error {
			records += len(d.Passive)
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
		if records != cfg.Prefixes*cfg.Days {
			b.Fatalf("streamed %d records, want %d", records, cfg.Prefixes*cfg.Days)
		}
	}
}

// BenchmarkBuildWorld measures the world build of a 50k-prefix
// population on every core: the block walk (metro pick, placement,
// volume and ISP draws) and the LDNS mapping it feeds, plus the
// population-free components. ci.sh gates its allocations, which scale
// with resolvers and blocks, not clients.
func BenchmarkBuildWorld(b *testing.B) {
	cfg := sim.DefaultConfig(25)
	cfg.Prefixes = 50_000
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w, err := sim.BuildWorld(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(w.Population.Clients) != cfg.Prefixes {
			b.Fatalf("built %d clients, want %d", len(w.Population.Clients), cfg.Prefixes)
		}
	}
}

// BenchmarkBuildShardWorld measures one distributed worker's world on
// one core: clients [100k, 200k) of a 400k-prefix population. A quarter
// of the walk is owned clients, drawn in full; the rest are drawn only as
// far as their resolver keys read. ci.sh gates its allocations with
// BenchmarkBuildWorld's.
func BenchmarkBuildShardWorld(b *testing.B) {
	cfg := sim.DefaultConfig(25)
	cfg.Prefixes = 400_000
	cfg.Workers = 1
	const lo, hi = 100_000, 200_000
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w, err := sim.BuildShardWorld(cfg, lo, hi)
		if err != nil {
			b.Fatal(err)
		}
		if len(w.Population.Clients) != hi-lo {
			b.Fatalf("built %d clients, want %d", len(w.Population.Clients), hi-lo)
		}
	}
}

// BenchmarkStreamManaged measures one surge-fleet worker's stream: a
// 50k-prefix month under a South American flash crowd, FastRoute
// managing load on one core, capacities derived in the stream's own
// schedule pass, with the world built before the timer starts. Its cost
// is the schedule pass's queries draw, the day pass and the per-day
// load-manager step.
func BenchmarkStreamManaged(b *testing.B) {
	cfg := sim.DefaultConfig(25)
	cfg.Prefixes = 50_000
	cfg.BeaconSampleRate = 0
	cfg.Workers = 1
	sc, err := faults.ParseScenario("surge south-america day=2 for=5 qps=15")
	if err != nil {
		b.Fatal(err)
	}
	cfg.Scenario = &sc
	cfg.LoadManager = &load.ManagerConfig{Policy: load.FastRoute}
	w, err := sim.BuildWorld(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var shed float64
		err := sim.StreamWorld(cfg, w, func(d sim.DayResult) error {
			for _, u := range d.Utilization {
				shed += u.ShedFrac
			}
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
		if shed == 0 {
			b.Fatal("no front-end shed load: the surge does not reach the controller")
		}
	}
}
