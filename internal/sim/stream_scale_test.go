package sim_test

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"anycastcdn/internal/bgp"
	"anycastcdn/internal/faults"
	"anycastcdn/internal/load"
	"anycastcdn/internal/sim"
	"anycastcdn/internal/testutil"
	"anycastcdn/internal/topology"
)

// TestWorkersRuleUnifiedAcrossPaths pins the worker-pool bugfix: every
// parallel phase of the day loop shares one clamping rule, so any
// non-positive worker count — including a negative one passed directly
// around Validate — behaves exactly like Workers=0 (GOMAXPROCS), and every
// worker count produces byte-identical output. Before the shared
// parallelFor helper, a negative count meant "all cores" in one parallel
// phase but silently serialized others.
func TestWorkersRuleUnifiedAcrossPaths(t *testing.T) {
	cfg := testutil.TinyConfig(55)
	cfg.Days = 4
	w, err := sim.BuildWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	digest := func(workers int) []string {
		c := cfg
		c.Workers = workers
		var d []string
		err := sim.StreamWorld(c, w, func(dr sim.DayResult) error {
			d = append(d, fmt.Sprintf("%+v\n%+v\n%+v", dr.Beacons, dr.Passive, dr.Assignments))
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	ref := digest(1)
	// Zero means GOMAXPROCS; a negative count reaching the pool directly
	// (Validate rejects it at the config boundary) means the same thing.
	for _, workers := range []int{-1, 0, 2, 16} {
		got := digest(workers)
		if len(got) != len(ref) {
			t.Fatalf("workers=%d: %d days, want %d", workers, len(got), len(ref))
		}
		for day := range ref {
			if got[day] != ref[day] {
				t.Fatalf("workers=%d: day %d differs from the serial run", workers, day)
			}
		}
	}
}

// TestStreamWorldSteadyStateAllocs pins the buffer-reuse contract: once
// the per-day output buffers exist, additional simulated days allocate
// nothing. Doubling the day count must not change the per-run allocation
// count (beacons are disabled so no day ever outgrows the shared beacon
// buffer; Workers=1 keeps the pool inline and goroutine-free) — neither
// when the extra days re-route the clients of a withdrawn ingress, nor
// when a load manager observes every day, runs FastRoute's control
// rounds on it or steps the Withdraw policy.
func TestStreamWorldSteadyStateAllocs(t *testing.T) {
	cfg := testutil.TinyConfig(66)
	cfg.Prefixes = 300
	cfg.BeaconSampleRate = 0
	cfg.Workers = 1
	w, err := sim.BuildWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	measure := func(cfg sim.Config, w *sim.World, days int) float64 {
		c := cfg
		c.Days = days
		return testing.AllocsPerRun(3, func() {
			if err := sim.StreamWorld(c, w, func(sim.DayResult) error { return nil }); err != nil {
				t.Fatal(err)
			}
		})
	}
	check := func(t *testing.T, cfg sim.Config, w *sim.World) {
		short, long := measure(cfg, w, 4), measure(cfg, w, 8)
		// The fixed setup cost (schedule array, day buffers) is identical; the
		// four extra days must add zero allocations.
		if long > short+0.5 {
			t.Fatalf("per-day steady-state allocations: %d days = %.0f allocs, %d days = %.0f allocs; extra days must not allocate",
				4, short, 8, long)
		}
	}
	t.Run("plain", func(t *testing.T) { check(t, cfg, w) })
	t.Run("flap", func(t *testing.T) {
		// Withdraw the busiest base ingress from day 1 on: the 8-day run
		// re-routes its clients on four more days than the 4-day run.
		count := map[topology.SiteID]int{}
		for i := range w.Population.Clients {
			c := &w.Population.Clients[i]
			count[w.Router.BaseIngress(bgp.Client{PrefixID: c.ID, Point: c.Point, ISP: c.ISP})]++
		}
		busiest := topology.InvalidSite
		for _, s := range w.Deployment.Backbone.PeeringSites() {
			if busiest == topology.InvalidSite || count[s] > count[busiest] {
				busiest = s
			}
		}
		sc, err := faults.ParseScenario(fmt.Sprintf("flap %s day=1 for=7", w.Deployment.Backbone.Site(busiest).Metro.Name))
		if err != nil {
			t.Fatal(err)
		}
		c := cfg
		c.Scenario = &sc
		fw, err := sim.BuildWorld(c)
		if err != nil {
			t.Fatal(err)
		}
		check(t, c, fw)
	})
	t.Run("managed-static", func(t *testing.T) {
		c := cfg
		c.LoadManager = &load.ManagerConfig{Policy: load.Static}
		check(t, c, w)
	})
	t.Run("managed-fastroute", func(t *testing.T) {
		// Every day runs the balancer's control rounds.
		c := cfg
		c.LoadManager = &load.ManagerConfig{Policy: load.FastRoute}
		check(t, c, w)
	})
	t.Run("managed-withdraw", func(t *testing.T) {
		// Every day re-homes each ingress and steps the naive strategy;
		// a surge from day 1 on keeps sites withdrawn on the extra days.
		sc, err := faults.ParseScenario("surge europe day=1 for=7 qps=20")
		if err != nil {
			t.Fatal(err)
		}
		c := cfg
		c.Scenario = &sc
		c.LoadManager = &load.ManagerConfig{Policy: load.Withdraw}
		sw, err := sim.BuildWorld(c)
		if err != nil {
			t.Fatal(err)
		}
		withdrawn := 0
		c.Days = 8
		if err := sim.StreamWorld(c, sw, func(d sim.DayResult) error {
			for _, u := range d.Utilization {
				if u.Withdrawn {
					withdrawn++
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if withdrawn == 0 {
			t.Fatal("the surge withdrew no site: the subtest would not step a withdrawal")
		}
		check(t, c, sw)
	})
}

// TestStreamWorldMillionPrefixSmoke runs the paper-scale configuration the
// streaming path exists for: one million client /24s over a 30-day month,
// beacons disabled (a passive-log analysis run). It pins three things: the
// run completes, it stays inside a generous wall-clock budget (it streams
// in 5–6 s at a heap under 300 MiB on 2 Xeon vCPUs with Workers =
// GOMAXPROCS; the budget leaves room for one slow core), and the process
// heap stays bounded — the batch Result for this run would exceed 2 GiB
// on its own, so staying under that bound proves the day-buffer reuse
// actually bounds memory. Skipped under -short and under the race
// detector (see race_on_test.go); ci.sh runs it as a named smoke step.
func TestStreamWorldMillionPrefixSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("million-prefix smoke skipped in short mode")
	}
	if raceEnabled {
		t.Skip("million-prefix smoke skipped under the race detector; the smaller streaming tests cover the day loop race-enabled")
	}
	cfg := testutil.TinyConfig(9)
	cfg.Prefixes = 1_000_000
	cfg.Days = 30
	cfg.BeaconSampleRate = 0
	cfg.Workers = 0
	w, err := sim.BuildWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	days := 0
	var records int
	err = sim.StreamWorld(cfg, w, func(d sim.DayResult) error {
		if d.Day != days {
			return fmt.Errorf("day %d out of order (want %d)", d.Day, days)
		}
		days++
		records += len(d.Passive)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if days != cfg.Days || records != cfg.Prefixes*cfg.Days {
		t.Fatalf("streamed %d days / %d records, want %d / %d", days, records, cfg.Days, cfg.Prefixes*cfg.Days)
	}
	const budget = 210 * time.Second
	if elapsed > budget {
		t.Fatalf("1M x 30 stream took %v, budget %v", elapsed.Round(time.Second), budget)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if ms.HeapSys > 2<<30 {
		t.Fatalf("heap grew to %d MiB; streaming must stay under 2 GiB", ms.HeapSys>>20)
	}
	t.Logf("1M prefixes x 30 days streamed in %v (%.1fM client-days/s), heap %d MiB",
		elapsed.Round(time.Millisecond),
		float64(records)/elapsed.Seconds()/1e6, ms.HeapSys>>20)
}

// TestStreamErrorJoinsWorkers pins the error-path cleanup: when the
// callback fails mid-run with a parallel worker pool active, StreamWorld
// returns the error immediately and no pool goroutines survive it (the
// pool runs per phase and joins before fn is called, so an error can
// never strand a worker). The reused day buffers are function-local, so
// they are unreachable — collectable — as soon as StreamWorld returns.
func TestStreamErrorJoinsWorkers(t *testing.T) {
	cfg := testutil.TinyConfig(77)
	cfg.Days = 4
	cfg.Workers = 4
	w, err := sim.BuildWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	sentinel := errors.New("stop mid-run")
	calls := 0
	err = sim.StreamWorld(cfg, w, func(d sim.DayResult) error {
		calls++
		if d.Day == 1 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want sentinel", err)
	}
	if calls != 2 {
		t.Fatalf("fn called %d times, want 2 (days 0 and 1)", calls)
	}
	// Workers join before fn runs, so the count should already be back;
	// poll briefly to absorb unrelated runtime goroutines winding down.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if g := runtime.NumGoroutine(); g <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked past StreamWorld error: %d before, %d after",
				before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
