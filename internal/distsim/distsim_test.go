package distsim

import (
	"context"
	"net"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"anycastcdn/internal/experiments"
	"anycastcdn/internal/faults"
	"anycastcdn/internal/load"
	"anycastcdn/internal/sim"
	"anycastcdn/internal/testutil"
	"anycastcdn/internal/topology"
)

// TestMain doubles as the worker fleet for the subprocess tests: the
// coordinator re-execs this test binary, and the DISTSIM_TEST_MODE
// variable selects a faithful worker or one of the failure stand-ins.
func TestMain(m *testing.M) {
	switch os.Getenv("DISTSIM_TEST_MODE") {
	case "":
		os.Exit(m.Run())
	case "worker":
		if err := ServeFD(context.Background()); err != nil {
			os.Exit(1)
		}
		os.Exit(0)
	case "crash":
		// Complete the handshake, then die mid-protocol: the coordinator
		// must surface the EOF, not hang waiting for day frames.
		f := os.NewFile(workerFD, "coordinator")
		conn, err := net.FileConn(f)
		_ = f.Close()
		if err != nil {
			os.Exit(1)
		}
		fc := newFrameConn(conn)
		if _, err := fc.expect(frameConfig, time.Now().Add(time.Minute)); err != nil {
			os.Exit(1)
		}
		fc.write(frameHello, nil, time.Now().Add(time.Minute))
		os.Exit(2)
	case "stall":
		// Heartbeat forever without making progress: liveness without
		// progress must still trip the coordinator's stall deadline.
		f := os.NewFile(workerFD, "coordinator")
		conn, err := net.FileConn(f)
		_ = f.Close()
		if err != nil {
			os.Exit(1)
		}
		fc := newFrameConn(conn)
		if _, err := fc.expect(frameConfig, time.Now().Add(time.Minute)); err != nil {
			os.Exit(1)
		}
		for {
			if err := fc.write(frameHeartbeat, nil, time.Now().Add(time.Minute)); err != nil {
				os.Exit(0) // coordinator hung up: the expected end
			}
			time.Sleep(10 * time.Millisecond)
		}
	default:
		os.Exit(1)
	}
}

// surgeConfig is the fixture used across the identity tests: a flash
// crowd keeps front-end switches, zero-query days, and (with a policy)
// nontrivial control decisions crossing shard boundaries.
func surgeConfig(t *testing.T, seed uint64, mgr *load.ManagerConfig) sim.Config {
	t.Helper()
	sc, err := faults.ParseScenario("surge south-america day=3 for=3 qps=6")
	if err != nil {
		t.Fatal(err)
	}
	cfg := testutil.SmallConfig(seed)
	cfg.Scenario = &sc
	cfg.LoadManager = mgr
	return cfg
}

// singleProcess runs the reference computation: one StreamWorld pass
// feeding one StreamSuite, capturing per-day utilization for managed
// configurations.
func singleProcess(t *testing.T, cfg sim.Config) (*experiments.StreamSuite, [][]sim.SiteUtil) {
	t.Helper()
	w, err := sim.BuildWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	suite := experiments.NewStreamSuite(cfg, w)
	var utils [][]sim.SiteUtil
	err = sim.StreamWorld(cfg, w, func(d sim.DayResult) error {
		if d.Utilization != nil {
			utils = append(utils, append([]sim.SiteUtil(nil), d.Utilization...))
		}
		return suite.Observe(d)
	})
	if err != nil {
		t.Fatal(err)
	}
	return suite, utils
}

// compareSuites asserts every passive-log report renders byte-identically.
func compareSuites(t *testing.T, ref, got *experiments.StreamSuite) {
	t.Helper()
	for _, r := range []struct {
		name     string
		ref, got string
	}{
		{"fig4", ref.Figure4().Render(), got.Figure4().Render()},
		{"catchments", ref.Catchments(10).Render(), got.Catchments(10).Render()},
		{"tcp", ref.TCPDisruption().Render(), got.TCPDisruption().Render()},
		{"loadshed", ref.LoadShedding(4).Render(), got.LoadShedding(4).Render()},
		{"fig7", ref.Figure7().Render(), got.Figure7().Render()},
		{"fig8", ref.Figure8().Render(), got.Figure8().Render()},
	} {
		if r.ref != r.got {
			t.Errorf("%s report differs from single-process run:\n--- single ---\n%s\n--- distributed ---\n%s",
				r.name, r.ref, r.got)
		}
	}
}

// compareUtilization asserts the merged fleet load picture matches the
// single-process one exactly: queries are integer-valued so the shard
// sums are exact, and the control fields are replica-identical.
func compareUtilization(t *testing.T, ref, got [][]sim.SiteUtil) {
	t.Helper()
	if len(ref) != len(got) {
		t.Fatalf("utilization days: got %d, want %d", len(got), len(ref))
	}
	for day := range ref {
		if len(ref[day]) != len(got[day]) {
			t.Fatalf("day %d: %d sites, want %d", day, len(got[day]), len(ref[day]))
		}
		for i, r := range ref[day] {
			if got[day][i] != r {
				t.Errorf("day %d site %d: got %+v, want %+v", day, r.Site, got[day][i], r)
			}
		}
	}
}

// TestDistributedMatchesSingleProcess is the tentpole identity for plain
// runs: three in-process workers speaking the full wire protocol must
// merge to byte-identical reports.
func TestDistributedMatchesSingleProcess(t *testing.T) {
	cfg := surgeConfig(t, 17, nil)
	ref, _ := singleProcess(t, cfg)
	res, err := Run(context.Background(), cfg, Options{Shards: 3, InProcess: true})
	if err != nil {
		t.Fatal(err)
	}
	compareSuites(t, ref, res.Suite)
	if res.Utilization != nil {
		t.Error("unmanaged run reported utilization")
	}
	if res.Records == 0 || res.Beacons == 0 {
		t.Errorf("fleet counters empty: %d records, %d beacons", res.Records, res.Beacons)
	}
}

// TestDistributedLoadManagedMatchesSingleProcess pins the managed path:
// the capacity exchange plus the per-day demand barrier must keep every
// policy replica bitwise in step, for both the FastRoute spillover and
// the naive withdrawal strategy.
func TestDistributedLoadManagedMatchesSingleProcess(t *testing.T) {
	for _, policy := range []load.Policy{load.FastRoute, load.Withdraw} {
		t.Run(policy.String(), func(t *testing.T) {
			cfg := surgeConfig(t, 23, &load.ManagerConfig{Policy: policy})
			ref, refUtil := singleProcess(t, cfg)
			res, err := Run(context.Background(), cfg, Options{Shards: 3, InProcess: true})
			if err != nil {
				t.Fatal(err)
			}
			compareSuites(t, ref, res.Suite)
			compareUtilization(t, refUtil, res.Utilization)
		})
	}
}

// TestDistributedPinnedCapacitiesMatchSingleProcess: with every
// front-end's capacity pinned in the config, the fleet must run on the
// pinned map as the single process does — no capacity exchange, and no
// derived capacities overriding the pin.
func TestDistributedPinnedCapacitiesMatchSingleProcess(t *testing.T) {
	cfg := surgeConfig(t, 23, nil)
	aw, err := sim.BuildAnalysisWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pinned := map[topology.SiteID]float64{}
	for _, fe := range aw.Deployment.Backbone.FrontEnds() {
		pinned[fe] = 12345
	}
	cfg.LoadManager = &load.ManagerConfig{Policy: load.FastRoute, Capacity: pinned}
	ref, refUtil := singleProcess(t, cfg)
	// Ring derivation raises the deep-ring sites' capacities; the rest
	// keep the pin.
	if !slices.ContainsFunc(refUtil[0], func(u sim.SiteUtil) bool { return u.Capacity == 12345 }) {
		t.Fatalf("no single-process day-0 capacity is the pinned 12345: %+v", refUtil[0])
	}
	res, err := Run(context.Background(), cfg, Options{Shards: 3, InProcess: true})
	if err != nil {
		t.Fatal(err)
	}
	compareSuites(t, ref, res.Suite)
	compareUtilization(t, refUtil, res.Utilization)
}

// TestDistributedSubprocess runs the real process fleet: forked workers
// on inherited socket pairs, Getrusage accounting and all. The merged
// reports must still be byte-identical.
func TestDistributedSubprocess(t *testing.T) {
	if testing.Short() {
		t.Skip("forks a worker fleet")
	}
	t.Setenv("DISTSIM_TEST_MODE", "worker")
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cfg := surgeConfig(t, 17, &load.ManagerConfig{Policy: load.FastRoute})
	ref, refUtil := singleProcess(t, cfg)
	res, err := Run(context.Background(), cfg, Options{Shards: 2, Argv: []string{exe}})
	if err != nil {
		t.Fatal(err)
	}
	compareSuites(t, ref, res.Suite)
	compareUtilization(t, refUtil, res.Utilization)
	for _, ws := range res.Workers {
		if ws.PeakRSSBytes <= 0 {
			t.Errorf("worker %d reported no peak RSS", ws.Shard)
		}
	}
}

// TestWorkerCrashSurfacesError pins the failure path: a worker dying
// mid-protocol must fail the run promptly with an error, never hang the
// merge loop.
func TestWorkerCrashSurfacesError(t *testing.T) {
	if testing.Short() {
		t.Skip("forks a worker fleet")
	}
	t.Setenv("DISTSIM_TEST_MODE", "crash")
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cfg := testutil.TinyConfig(5)
	start := time.Now()
	_, err = Run(context.Background(), cfg, Options{
		Shards: 2, Argv: []string{exe}, StallTimeout: 30 * time.Second,
	})
	if err == nil {
		t.Fatal("run with crashing workers succeeded")
	}
	// The crash is an EOF, not a stall: it must surface well before the
	// stall deadline.
	if d := time.Since(start); d > 20*time.Second {
		t.Errorf("crash took %v to surface", d)
	}
}

// TestStalledWorkerTripsDeadline pins the liveness/progress distinction:
// heartbeats prove the process is alive but must not reset the stall
// bound on the frame the coordinator is actually waiting for.
func TestStalledWorkerTripsDeadline(t *testing.T) {
	if testing.Short() {
		t.Skip("forks a worker fleet")
	}
	t.Setenv("DISTSIM_TEST_MODE", "stall")
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cfg := testutil.TinyConfig(5)
	start := time.Now()
	_, err = Run(context.Background(), cfg, Options{
		Shards: 1, Argv: []string{exe},
		HeartbeatEvery: 20 * time.Millisecond, StallTimeout: 500 * time.Millisecond,
	})
	if err == nil {
		t.Fatal("run with a stalled worker succeeded")
	}
	if d := time.Since(start); d > 15*time.Second {
		t.Errorf("stall took %v to trip a 500ms deadline", d)
	}
}

// TestCancelTearsDownFleet pins cancellation: a canceled context must
// unwind the whole run — every goroutine joined, every worker reaped —
// and report the cancellation, not a derived I/O error.
func TestCancelTearsDownFleet(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		// Big enough that the fleet is mid-flight when the cancel lands.
		cfg := testutil.SmallConfig(31)
		cfg.Prefixes = 60000
		cfg.Days = 30
		_, err := Run(ctx, cfg, Options{Shards: 2, InProcess: true})
		errc <- err
	}()
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("canceled run succeeded")
		}
		if !strings.Contains(err.Error(), context.Canceled.Error()) {
			t.Errorf("error does not report cancellation: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("canceled run did not return")
	}
}

// TestRunValidatesOptions pins the cheap argument errors.
func TestRunValidatesOptions(t *testing.T) {
	cfg := testutil.TinyConfig(5)
	if _, err := Run(context.Background(), cfg, Options{Shards: 0}); err == nil {
		t.Error("zero shards accepted")
	}
	// More shards than prefixes must clamp, not break.
	cfg.Prefixes = 3
	res, err := Run(context.Background(), cfg, Options{Shards: 8, InProcess: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Workers) != 3 {
		t.Errorf("shards not clamped to prefix count: %d workers", len(res.Workers))
	}
}

// TestMergeDayValidatesUtilization pins the utilization section's shape:
// in a managed run every shard lists every front-end, in backbone order,
// and in an unmanaged run none does. A shard that listed fewer sites
// would drop its load from the merged table, and an unknown site would
// reach the backbone lookups of the CSV writer.
func TestMergeDayValidatesUtilization(t *testing.T) {
	cfg := testutil.TinyConfig(3)
	w, err := sim.BuildWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	aw, err := sim.BuildAnalysisWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fes := aw.Deployment.Backbone.FrontEnds()
	swapped := slices.Clone(fes)
	swapped[0], swapped[1] = swapped[1], swapped[0]
	bounds := [][2]int{{0, cfg.Prefixes / 2}, {cfg.Prefixes / 2, cfg.Prefixes}}
	// dayFrame encodes shard's day-0 payload with 10 queries per listed site.
	dayFrame := func(shard int, sites []topology.SiteID) []byte {
		obs, err := experiments.NewShardObserver(cfg, w, bounds[shard][0], bounds[shard][1])
		if err != nil {
			t.Fatal(err)
		}
		utils := make([]sim.SiteUtil, len(sites))
		for i, s := range sites {
			utils[i] = sim.SiteUtil{Site: s, Queries: 10, Capacity: 100}
		}
		return appendDayFrame(nil, obs, sim.DayResult{Utilization: utils})
	}
	for _, tc := range []struct {
		name    string
		managed bool
		shards  [2][]topology.SiteID
		wantErr bool
	}{
		{"managed, every front-end", true, [2][]topology.SiteID{fes, fes}, false},
		{"unmanaged, no sections", false, [2][]topology.SiteID{nil, nil}, false},
		{"short", true, [2][]topology.SiteID{fes, fes[:len(fes)-1]}, true},
		{"empty", true, [2][]topology.SiteID{fes, nil}, true},
		{"reordered", true, [2][]topology.SiteID{swapped, swapped}, true},
		{"unexpected", false, [2][]topology.SiteID{nil, fes}, true},
	} {
		c := &coordinator{cfg: cfg, world: aw, bounds: bounds}
		if tc.managed {
			c.fes = fes
		}
		suite := experiments.NewStreamSuite(cfg, aw)
		var dayUtil []sim.SiteUtil
		var err error
		for shard, sites := range tc.shards {
			if dayUtil, err = c.mergeDay(suite, 0, shard, dayFrame(shard, sites), dayUtil); err != nil {
				break
			}
		}
		if gotErr := err != nil; gotErr != tc.wantErr {
			t.Errorf("%s: merge error %v, want error %t", tc.name, err, tc.wantErr)
			continue
		}
		if !tc.wantErr && tc.managed && (len(dayUtil) != len(fes) || dayUtil[0].Queries != 20) {
			t.Errorf("%s: merged %d sites, first with %v queries; want %d sites of 20", tc.name, len(dayUtil), dayUtil[0].Queries, len(fes))
		}
	}
}

func TestWorkerStatsCheck(t *testing.T) {
	good := WorkerStats{Shard: 1, Lo: 100, Hi: 250, Days: 9, Records: 150 * 9, Beacons: 40}
	if err := good.check(1, 100, 250, 9); err != nil {
		t.Fatalf("faithful stats rejected: %v", err)
	}
	for _, tc := range []struct {
		name string
		mut  func(*WorkerStats)
	}{
		{"other shard", func(s *WorkerStats) { s.Shard = 2 }},
		{"moved lo", func(s *WorkerStats) { s.Lo = 99 }},
		{"moved hi", func(s *WorkerStats) { s.Hi = 251 }},
		{"short run", func(s *WorkerStats) { s.Days = 8; s.Records = 150 * 8 }},
		{"records off by one", func(s *WorkerStats) { s.Records++ }},
		{"negative records", func(s *WorkerStats) { s.Records = -1 }},
		{"negative beacons", func(s *WorkerStats) { s.Beacons = -1 }},
	} {
		s := good
		tc.mut(&s)
		if err := s.check(1, 100, 250, 9); err == nil {
			t.Errorf("%s: stats %+v accepted", tc.name, s)
		}
	}
}
