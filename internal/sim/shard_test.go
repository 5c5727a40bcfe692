package sim_test

import (
	"errors"
	"sync"
	"testing"

	"anycastcdn/internal/beacon"
	"anycastcdn/internal/bgp"
	"anycastcdn/internal/load"
	"anycastcdn/internal/sim"
	"anycastcdn/internal/testutil"
)

// dayCapture materializes one stream's per-day outputs (DayResult slices
// are stream-owned and reused, so tests must copy).
type dayCapture struct {
	passive [][]sim.DayRecord
	assigns [][]bgp.Assignment
	beacons [][]beacon.Measurement
	utils   [][]sim.SiteUtil
}

func capture(days int) *dayCapture {
	return &dayCapture{
		passive: make([][]sim.DayRecord, days),
		assigns: make([][]bgp.Assignment, days),
		beacons: make([][]beacon.Measurement, days),
		utils:   make([][]sim.SiteUtil, days),
	}
}

func (c *dayCapture) observe(d sim.DayResult) error {
	c.passive[d.Day] = append([]sim.DayRecord(nil), d.Passive...)
	c.assigns[d.Day] = append([]bgp.Assignment(nil), d.Assignments...)
	c.beacons[d.Day] = append([]beacon.Measurement(nil), d.Beacons...)
	c.utils[d.Day] = append([]sim.SiteUtil(nil), d.Utilization...)
	return nil
}

// shardBounds carves [0, n) into deliberately uneven contiguous shards,
// including a tiny middle one, so off-by-ones at shard edges surface.
func shardBounds(n int) [][2]int {
	a := n / 3
	return [][2]int{{0, a}, {a, a + 3}, {a + 3, n}}
}

// TestStreamShardConcatenationMatchesStreamWorld is the core sharding
// property: per-client outputs are schedule-independent, so streaming
// contiguous client ranges separately and concatenating each day's
// outputs in shard order reproduces StreamWorld record for record —
// beacons, passive rows and assignments alike. Runs with a surge
// scenario so fault rewrites and flash-crowd beacon skew cross shard
// boundaries.
func TestStreamShardConcatenationMatchesStreamWorld(t *testing.T) {
	cfg := managedConfig(t, 11, load.Static)
	cfg.LoadManager = nil // fault injection only; managed sharding is tested below
	w, err := sim.BuildWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref := capture(cfg.Days)
	if err := sim.StreamWorld(cfg, w, ref.observe); err != nil {
		t.Fatal(err)
	}
	got := capture(cfg.Days)
	for _, b := range shardBounds(len(w.Population.Clients)) {
		sh := capture(cfg.Days)
		err := sim.StreamShard(cfg, w, sim.ShardOpts{Lo: b[0], Hi: b[1]}, sh.observe)
		if err != nil {
			t.Fatal(err)
		}
		for d := 0; d < cfg.Days; d++ {
			got.passive[d] = append(got.passive[d], sh.passive[d]...)
			got.assigns[d] = append(got.assigns[d], sh.assigns[d]...)
			got.beacons[d] = append(got.beacons[d], sh.beacons[d]...)
		}
	}
	for d := 0; d < cfg.Days; d++ {
		if len(got.passive[d]) != len(ref.passive[d]) {
			t.Fatalf("day %d: %d concatenated passive rows, want %d", d, len(got.passive[d]), len(ref.passive[d]))
		}
		for i := range ref.passive[d] {
			if got.passive[d][i] != ref.passive[d][i] {
				t.Fatalf("day %d passive %d differs:\n%+v\nvs\n%+v", d, i, got.passive[d][i], ref.passive[d][i])
			}
			if got.assigns[d][i] != ref.assigns[d][i] {
				t.Fatalf("day %d assignment %d differs", d, i)
			}
		}
		if len(got.beacons[d]) != len(ref.beacons[d]) {
			t.Fatalf("day %d: %d concatenated beacons, want %d", d, len(got.beacons[d]), len(ref.beacons[d]))
		}
		for i := range ref.beacons[d] {
			if got.beacons[d][i] != ref.beacons[d][i] {
				t.Fatalf("day %d beacon %d differs:\n%+v\nvs\n%+v", d, i, got.beacons[d][i], ref.beacons[d][i])
			}
		}
	}
}

// TestStreamShardRejectsBadRange pins the bounds validation.
func TestStreamShardRejectsBadRange(t *testing.T) {
	cfg := testutil.TinyConfig(3)
	w, err := sim.BuildWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fn := func(sim.DayResult) error { return nil }
	n := len(w.Population.Clients)
	for _, b := range [][2]int{{-1, 5}, {5, 4}, {0, n + 1}} {
		if err := sim.StreamShard(cfg, w, sim.ShardOpts{Lo: b[0], Hi: b[1]}, fn); err == nil {
			t.Errorf("shard [%d, %d) accepted", b[0], b[1])
		}
	}
}

// demandBarrier is an in-process stand-in for the coordinator's per-day
// two-phase demand exchange: every shard reports its offered load, the
// last arrival reduces the sum, and all shards proceed with the same
// global vector. Query counts are integers, so the float sums are exact
// in any arrival order.
type demandBarrier struct {
	mu      sync.Mutex
	cond    *sync.Cond
	shards  int
	arrived int
	gen     int
	sum     []float64
	global  []float64
}

func newDemandBarrier(shards int) *demandBarrier {
	b := &demandBarrier{shards: shards}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *demandBarrier) exchange(day int, shard []float64) ([]float64, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.arrived == 0 {
		b.sum = make([]float64, len(shard))
	}
	for s, v := range shard {
		b.sum[s] += v
	}
	b.arrived++
	if b.arrived == b.shards {
		b.global = b.sum
		b.arrived = 0
		b.gen++
		b.cond.Broadcast()
		return b.global, nil
	}
	gen := b.gen
	for b.gen == gen {
		b.cond.Wait()
	}
	return b.global, nil
}

// loadBarrier is an in-process stand-in for the coordinator's one-shot
// capacity exchange: every shard hands in the load matrix its schedule
// pass accumulated, the last arrival sums them (integer-valued cells, so
// exact in any arrival order) and derives the capacities, and every shard
// proceeds with the same vector.
type loadBarrier struct {
	cfg     sim.Config
	w       *sim.World
	mu      sync.Mutex
	cond    *sync.Cond
	shards  int
	arrived int
	sum     []float64
	caps    []float64
	err     error
}

func newLoadBarrier(cfg sim.Config, w *sim.World, shards int) *loadBarrier {
	b := &loadBarrier{cfg: cfg, w: w, shards: shards}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *loadBarrier) exchange(m []float64) ([]float64, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.sum == nil {
		b.sum = make([]float64, len(m))
	}
	for i, v := range m {
		b.sum[i] += v
	}
	b.arrived++
	if b.arrived == b.shards {
		b.caps, b.err = sim.CapsFromLoadMatrix(b.cfg, b.w, b.sum)
		b.cond.Broadcast()
	}
	for b.arrived < b.shards {
		b.cond.Wait()
	}
	return b.caps, b.err
}

// TestStreamShardLoadManagedMatchesStreamWorld runs the full distributed
// load-management protocol in-process: capacities derived from the sum
// of the load matrices the shards' schedule passes accumulate,
// concurrent shard streams synchronized by a per-day demand exchange,
// policy replicas stepping on the same global demand.
// The concatenated outputs must be byte-identical to single-process
// StreamWorld under the same surge, and the per-shard utilization
// snapshots must reduce (served volumes summed, control state identical
// across replicas) to the single-process ones.
func TestStreamShardLoadManagedMatchesStreamWorld(t *testing.T) {
	for _, policy := range []load.Policy{load.FastRoute, load.Withdraw} {
		cfg := managedConfig(t, 11, policy)
		w, err := sim.BuildWorld(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ref := capture(cfg.Days)
		if err := sim.StreamWorld(cfg, w, ref.observe); err != nil {
			t.Fatal(err)
		}

		n := len(w.Population.Clients)
		bounds := shardBounds(n)
		loads := newLoadBarrier(cfg, w, len(bounds))
		barrier := newDemandBarrier(len(bounds))
		shards := make([]*dayCapture, len(bounds))
		errs := make([]error, len(bounds))
		var wg sync.WaitGroup
		for si, b := range bounds {
			shards[si] = capture(cfg.Days)
			wg.Add(1)
			go func(si int, lo, hi int) {
				defer wg.Done()
				errs[si] = sim.StreamShard(cfg, w, sim.ShardOpts{
					Lo: lo, Hi: hi,
					ExchangeLoad:   loads.exchange,
					ExchangeDemand: barrier.exchange,
				}, shards[si].observe)
			}(si, b[0], b[1])
		}
		wg.Wait()
		for si, err := range errs {
			if err != nil {
				t.Fatalf("%s: shard %d: %v", policy, si, err)
			}
		}

		for d := 0; d < cfg.Days; d++ {
			var passive []sim.DayRecord
			var beacons []beacon.Measurement
			for _, sh := range shards {
				passive = append(passive, sh.passive[d]...)
				beacons = append(beacons, sh.beacons[d]...)
			}
			for i := range ref.passive[d] {
				if passive[i] != ref.passive[d][i] {
					t.Fatalf("%s: day %d passive %d differs:\n%+v\nvs\n%+v",
						policy, d, i, passive[i], ref.passive[d][i])
				}
			}
			if len(beacons) != len(ref.beacons[d]) {
				t.Fatalf("%s: day %d beacon count %d, want %d", policy, d, len(beacons), len(ref.beacons[d]))
			}
			for i := range ref.beacons[d] {
				if beacons[i] != ref.beacons[d][i] {
					t.Fatalf("%s: day %d beacon %d differs", policy, d, i)
				}
			}
			// Utilization reduce: shard served volumes sum exactly; the
			// control-state fields are replica-identical.
			for i, ru := range ref.utils[d] {
				var q float64
				for _, sh := range shards {
					su := sh.utils[d][i]
					q += su.Queries
					if su.Site != ru.Site || su.Capacity != ru.Capacity ||
						su.ShedFrac != ru.ShedFrac || su.Withdrawn != ru.Withdrawn {
						t.Fatalf("%s: day %d site %d control state differs:\n%+v\nvs\n%+v",
							policy, d, i, su, ru)
					}
				}
				if q != ru.Queries {
					t.Fatalf("%s: day %d site %d served %v, want %v", policy, d, i, q, ru.Queries)
				}
			}
		}
	}
}

// TestShardLoadMatrixReducesToFull: the elementwise sum of shard matrices
// equals the full-population matrix bit for bit (integer-valued cells).
func TestShardLoadMatrixReducesToFull(t *testing.T) {
	cfg := managedConfig(t, 5, load.FastRoute)
	w, err := sim.BuildWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := len(w.Population.Clients)
	full, err := sim.ShardLoadMatrix(cfg, w, 0, n)
	if err != nil {
		t.Fatal(err)
	}
	var reduced []float64
	for _, b := range shardBounds(n) {
		m, err := sim.ShardLoadMatrix(cfg, w, b[0], b[1])
		if err != nil {
			t.Fatal(err)
		}
		if reduced == nil {
			reduced = m
		} else {
			for i := range reduced {
				reduced[i] += m[i]
			}
		}
	}
	for i := range full {
		if full[i] != reduced[i] {
			t.Fatalf("matrix cell %d: full %v, reduced %v", i, full[i], reduced[i])
		}
	}
	if _, err := sim.ShardLoadMatrix(cfg, w, -1, n); err == nil {
		t.Error("negative shard lo accepted")
	}
	badCfg := cfg
	badCfg.LoadManager = nil
	if _, err := sim.ShardLoadMatrix(badCfg, w, 0, n); err == nil {
		t.Error("load matrix without manager config accepted")
	}
	if _, err := sim.CapsFromLoadMatrix(cfg, w, full[:3]); err == nil {
		t.Error("short matrix accepted by CapsFromLoadMatrix")
	}
}

// errStopStream ends a stream after its first day.
var errStopStream = errors.New("stop after day 0")

// TestStreamLoadMatrixMatchesShardLoadMatrix: the load matrix a managed
// stream accumulates in its schedule pass, one partial matrix per pool
// worker, equals the serial ShardLoadMatrix over the same range bit for
// bit at Workers 1, 2 and 3, and a stream that derives its capacities
// locally uses the ones CapsFromLoadMatrix derives from that matrix.
func TestStreamLoadMatrixMatchesShardLoadMatrix(t *testing.T) {
	cfg := managedConfig(t, 5, load.FastRoute)
	w, err := sim.BuildWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := len(w.Population.Clients)
	full, err := sim.ShardLoadMatrix(cfg, w, 0, n)
	if err != nil {
		t.Fatal(err)
	}
	fullCaps, err := sim.CapsFromLoadMatrix(cfg, w, full)
	if err != nil {
		t.Fatal(err)
	}
	firstDay := func(cfg sim.Config, opts sim.ShardOpts) []sim.SiteUtil {
		t.Helper()
		var util []sim.SiteUtil
		err := sim.StreamShard(cfg, w, opts, func(d sim.DayResult) error {
			util = append(util, d.Utilization...)
			return errStopStream
		})
		if !errors.Is(err, errStopStream) {
			t.Fatalf("stream over [%d, %d): %v", opts.Lo, opts.Hi, err)
		}
		return util
	}
	for _, workers := range []int{1, 2, 3} {
		cfg := cfg
		cfg.Workers = workers
		for _, b := range append(shardBounds(n), [2]int{0, n}) {
			want, err := sim.ShardLoadMatrix(cfg, w, b[0], b[1])
			if err != nil {
				t.Fatal(err)
			}
			var got []float64
			exchanged := firstDay(cfg, sim.ShardOpts{Lo: b[0], Hi: b[1],
				ExchangeLoad: func(m []float64) ([]float64, error) {
					got = append([]float64(nil), m...)
					return fullCaps, nil
				}})
			if len(got) != len(want) {
				t.Fatalf("workers=%d [%d, %d): stream matrix has %d cells, ShardLoadMatrix %d", workers, b[0], b[1], len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("workers=%d [%d, %d): cell %d is %v in the stream, %v in ShardLoadMatrix", workers, b[0], b[1], i, got[i], want[i])
				}
			}
			if b[0] != 0 || b[1] != n {
				continue
			}
			local := firstDay(cfg, sim.ShardOpts{Lo: 0, Hi: n})
			for i := range exchanged {
				if local[i] != exchanged[i] {
					t.Fatalf("workers=%d: locally derived day-0 utilization %+v, from ShardLoadMatrix's capacities %+v", workers, local[i], exchanged[i])
				}
			}
		}
	}
	// A managed stream over part of the population cannot derive
	// capacities without the exchange.
	if err := sim.StreamShard(cfg, w, sim.ShardOpts{Lo: 0, Hi: n / 2}, func(sim.DayResult) error { return nil }); err == nil {
		t.Error("managed partial-range stream without ExchangeLoad accepted")
	}
}
