package sim_test

import (
	"errors"
	"runtime"
	"testing"

	"anycastcdn/internal/sim"
	"anycastcdn/internal/testutil"
)

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
// population: the fused client walk (metro pick, placement, volume and
// ISP draws) and the LDNS mapping it feeds, plus the population-free
// components. ci.sh gates its allocations, which scale with resolvers,
// not clients.
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
