package experiments

import (
	"bytes"
	"encoding/binary"
	"testing"

	"anycastcdn/internal/faults"
	"anycastcdn/internal/sim"
	"anycastcdn/internal/stats"
	"anycastcdn/internal/testutil"
	"anycastcdn/internal/units"
)

// shardFrames streams one shard's days through a ShardObserver and
// returns the encoded per-day deltas.
func shardFrames(t testing.TB, cfg sim.Config, w *sim.World, lo, hi int) [][]byte {
	t.Helper()
	obs, err := NewShardObserver(cfg, w, lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	frames := make([][]byte, 0, cfg.Days)
	err = sim.StreamShard(cfg, w, sim.ShardOpts{Lo: lo, Hi: hi}, func(d sim.DayResult) error {
		frames = append(frames, obs.AppendDay(d, nil))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return frames
}

// TestShardMergeMatchesStreamSuite is the distributed analysis pipeline's
// core identity: shard observers encoding per-day deltas, merged in
// (day, shard) order into a suite over a population-free analysis world,
// must render every passive-log report byte-identically to a suite that
// observed the whole stream in one process. A surge scenario keeps
// front-end switches and zero-query days crossing shard boundaries.
func TestShardMergeMatchesStreamSuite(t *testing.T) {
	sc, err := faults.ParseScenario("surge south-america day=3 for=3 qps=6")
	if err != nil {
		t.Fatal(err)
	}
	cfg := testutil.SmallConfig(17)
	cfg.Scenario = &sc
	w, err := sim.BuildWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref := NewStreamSuite(cfg, w)
	if err := sim.StreamWorld(cfg, w, ref.Observe); err != nil {
		t.Fatal(err)
	}

	n := len(w.Population.Clients)
	a := n / 3
	bounds := [][2]int{{0, a}, {a, a + 3}, {a + 3, n}}
	frames := make([][][]byte, len(bounds)) // shard -> day -> delta
	for si, b := range bounds {
		frames[si] = shardFrames(t, cfg, w, b[0], b[1])
	}

	// The coordinator path: merge over a world with no population at all.
	aw, err := sim.BuildAnalysisWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	merged := NewStreamSuite(cfg, aw)
	for day := 0; day < cfg.Days; day++ {
		for si, b := range bounds {
			if err := merged.MergeShardDay(day, b[0], b[1], frames[si][day]); err != nil {
				t.Fatalf("day %d shard %d: %v", day, si, err)
			}
		}
	}

	reports := []struct {
		name     string
		ref, got string
	}{
		{"fig4", ref.Figure4().Render(), merged.Figure4().Render()},
		{"catchments", ref.Catchments(10).Render(), merged.Catchments(10).Render()},
		{"tcp", ref.TCPDisruption().Render(), merged.TCPDisruption().Render()},
		{"loadshed", ref.LoadShedding(4).Render(), merged.LoadShedding(4).Render()},
		{"fig7", ref.Figure7().Render(), merged.Figure7().Render()},
		{"fig8", ref.Figure8().Render(), merged.Figure8().Render()},
	}
	for _, r := range reports {
		if r.ref != r.got {
			t.Errorf("%s report differs after shard merge:\n--- single-process ---\n%s\n--- merged ---\n%s",
				r.name, r.ref, r.got)
		}
	}
}

// TestMergeShardDayErrors pins the malformed-frame paths: nothing a
// worker sends should be able to panic the coordinator.
func TestMergeShardDayErrors(t *testing.T) {
	cfg := testutil.TinyConfig(5)
	w, err := sim.BuildWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := len(w.Population.Clients)
	frames := shardFrames(t, cfg, w, 0, n)

	fresh := func() *StreamSuite { return NewStreamSuite(cfg, w) }
	if err := fresh().MergeShardDay(0, 0, n, frames[0]); err != nil {
		t.Fatalf("valid frame rejected: %v", err)
	}
	cases := []struct {
		name        string
		day, lo, hi int
		data        []byte
	}{
		{"empty", 0, 0, n, nil},
		{"bad magic", 0, 0, n, append([]byte{0x00}, frames[0][1:]...)},
		{"wrong day", 1, 0, n, frames[0]},
		{"wrong range", 0, 0, n - 1, frames[0]},
		{"truncated", 0, 0, n, frames[0][:len(frames[0])/2]},
		{"trailing bytes", 0, 0, n, append(append([]byte{}, frames[0]...), 0xAB)},
	}
	for name, data := range hostileFrames(t, 0, n) {
		cases = append(cases, struct {
			name        string
			day, lo, hi int
			data        []byte
		}{name, 0, 0, n, data})
	}
	for _, c := range cases {
		if err := fresh().MergeShardDay(c.day, c.lo, c.hi, c.data); err == nil {
			t.Errorf("%s: malformed frame accepted", c.name)
		}
	}
}

// TestShardObserverRejectsBadRange pins the constructor validation.
func TestShardObserverRejectsBadRange(t *testing.T) {
	cfg := testutil.TinyConfig(5)
	w, err := sim.BuildWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := len(w.Population.Clients)
	for _, b := range [][2]int{{-1, 2}, {4, 2}, {0, n + 1}} {
		if _, err := NewShardObserver(cfg, w, b[0], b[1]); err == nil {
			t.Errorf("range [%d, %d) accepted", b[0], b[1])
		}
	}
}

// hostileFrames are well-framed day-0 deltas for [lo, hi) that a broken
// or hostile worker could send: section counts whose byte size wraps
// uint64 to 0, and site IDs outside the backbone.
func hostileFrames(t testing.TB, lo, hi int) map[string][]byte {
	t.Helper()
	u64s := func(prefix []byte, vs ...uint64) []byte {
		out := append([]byte{}, prefix...)
		for _, v := range vs {
			out = binary.LittleEndian.AppendUint64(out, v)
		}
		return out
	}
	header := u64s([]byte{shardDayMagic}, 0, uint64(lo), uint64(hi))
	var empty stats.ECDFBuilder[units.Kilometers]
	magic := empty.Encode(nil)[0] // an ECDF builder frame's first byte
	emptyRuns := header
	for i := 0; i < 4; i++ {
		emptyRuns = empty.Encode(emptyRuns)
	}
	// The rest of a well-formed day-0 frame: empty switch, zero-query and
	// Figure 7 ID lists, then an empty Figure 8 sketch.
	sk, err := stats.NewLogQuantileSketch(fig8SketchLo, fig8SketchHi, fig8SketchBins)
	if err != nil {
		t.Fatal(err)
	}
	tail := sk.Encode(u64s(nil, 0, 0, 0))
	return map[string][]byte{
		"1<<60 Figure 4 samples":  u64s(append(append([]byte{}, header...), magic), 1<<60),
		"1<<61 catchment tuples":  u64s(emptyRuns, 1<<61),
		"1<<60 demand pairs":      u64s(emptyRuns, 0, 1<<60),
		"catchment site past end": append(u64s(emptyRuns, 1, 1<<40, 0, 0, 0), tail...),
		"demand site past end":    append(u64s(emptyRuns, 0, 1, 1<<40, 0), tail...),
	}
}

// FuzzMergeShardDay checks the coordinator's decoder of worker frames —
// untrusted bytes from another process — for two properties: neither the
// merge nor rendering what it accepted panics, and every frame a
// ShardObserver encodes is accepted. The day and shard range are the
// coordinator's own (trusted) values.
func FuzzMergeShardDay(f *testing.F) {
	cfg := testutil.TinyConfig(5)
	w, err := sim.BuildWorld(cfg)
	if err != nil {
		f.Fatal(err)
	}
	const lo, hi = 10, 20
	frames := shardFrames(f, cfg, w, lo, hi)
	for day, frame := range frames {
		f.Add(uint8(day), frame)
	}
	for _, frame := range hostileFrames(f, lo, hi) {
		f.Add(uint8(0), frame)
	}
	f.Fuzz(func(t *testing.T, day uint8, data []byte) {
		d := int(day) % cfg.Days
		ss := NewStreamSuite(cfg, w)
		if err := ss.MergeShardDay(d, lo, hi, data); err != nil {
			if bytes.Equal(data, frames[d]) {
				t.Fatalf("day %d: encoded frame rejected: %v", d, err)
			}
			return
		}
		for _, r := range []Report{ss.Figure4(), ss.Catchments(10), ss.TCPDisruption(), ss.LoadShedding(4), ss.Figure7(), ss.Figure8()} {
			_ = r.Render()
		}
	})
}
