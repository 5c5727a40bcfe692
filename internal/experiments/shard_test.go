package experiments

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"strings"
	"testing"

	"anycastcdn/internal/faults"
	"anycastcdn/internal/sim"
	"anycastcdn/internal/testutil"
)

// shardFrames streams one shard's days through a ShardObserver and
// returns the encoded per-day frames, each as long as FrameLen said.
func shardFrames(t testing.TB, cfg sim.Config, w *sim.World, lo, hi int) [][]byte {
	t.Helper()
	obs, err := NewShardObserver(cfg, w, lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	frames := make([][]byte, 0, cfg.Days)
	err = sim.StreamShard(cfg, w, sim.ShardOpts{Lo: lo, Hi: hi}, func(d sim.DayResult) error {
		frame := obs.AppendDay(d, nil)
		if want := obs.FrameLen(d.Day); len(frame) != want {
			t.Fatalf("day %d: %d-byte frame, FrameLen %d", d.Day, len(frame), want)
		}
		frames = append(frames, frame)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return frames
}

// TestShardMergeMatchesStreamSuite is the distributed analysis pipeline's
// core identity: shard observers framing their days, merged in (day,
// shard) order into a suite over a population-free analysis world, must
// render every passive-log report byte-identically to a suite that
// observed the whole stream in one process. A surge scenario keeps
// front-end switches and zero-query days crossing shard boundaries, and
// the 5-day run ends inside Figure 7's week, so the window closes on the
// last day.
func TestShardMergeMatchesStreamSuite(t *testing.T) {
	sc, err := faults.ParseScenario("surge south-america day=3 for=3 qps=6")
	if err != nil {
		t.Fatal(err)
	}
	for _, days := range []int{9, 5} {
		t.Run(fmt.Sprintf("%d days", days), func(t *testing.T) {
			cfg := testutil.SmallConfig(17)
			cfg.Days = days
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
			frames := make([][][]byte, len(bounds)) // shard -> day -> frame
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
		})
	}
}

// TestAppendStateAllocatesOnce: the last day's state is sized before any
// of it is written, so encoding it into an empty buffer allocates once,
// however many served rows and clients it holds.
func TestAppendStateAllocatesOnce(t *testing.T) {
	cfg := testutil.SmallConfig(17)
	w, err := sim.BuildWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	obs, err := NewShardObserver(cfg, w, 0, len(w.Population.Clients))
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.StreamWorld(cfg, w, func(d sim.DayResult) error {
		obs.s.observePassive(d)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(obs.s.served) < 100 {
		t.Fatalf("only %d served rows: the state is too small to grow more than once", len(obs.s.served))
	}
	var state []byte
	if allocs := testing.AllocsPerRun(10, func() { state = obs.s.appendState(nil) }); allocs != 1 {
		t.Fatalf("appendState into an empty buffer made %v allocations, want 1", allocs)
	}
	if len(state) != obs.s.stateLen() {
		t.Fatalf("appendState wrote %d bytes, stateLen %d", len(state), obs.s.stateLen())
	}
}

// TestMergeShardDayErrors pins the malformed-frame paths: nothing a
// worker sends may panic the coordinator, and every defect of a last-day
// frame is rejected by the check that names it.
func TestMergeShardDayErrors(t *testing.T) {
	cfg := testutil.TinyConfig(5)
	w, err := sim.BuildWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const lo, hi = 10, 20
	frames := shardFrames(t, cfg, w, lo, hi)
	last := cfg.Days - 1
	fresh := func() *StreamSuite { return NewStreamSuite(cfg, w) }
	for day, frame := range frames {
		if err := fresh().MergeShardDay(day, lo, hi, frame); err != nil {
			t.Fatalf("day %d: valid frame rejected: %v", day, err)
		}
	}
	if len(frames[0]) != 1+3*8 {
		t.Fatalf("day-0 frame is %d bytes, want a bare header", len(frames[0]))
	}

	type mergeCase struct {
		name, want  string
		day, lo, hi int
		data        []byte
		// mergedFirst merges the valid last-day frame before data.
		mergedFirst bool
	}
	cases := []mergeCase{
		{name: "empty", want: "header", day: last, lo: lo, hi: hi},
		{name: "bad magic", want: "header", day: last, lo: lo, hi: hi, data: append([]byte{0x00}, frames[last][1:]...)},
		{name: "wrong day", want: "frame is", day: last - 1, lo: lo, hi: hi, data: frames[last]},
		{name: "wrong range", want: "frame is", day: last, lo: lo, hi: hi - 1, data: frames[last]},
		{name: "range outside the suite", want: "outside", day: last, lo: lo, hi: cfg.Prefixes + 1,
			data: binary.LittleEndian.AppendUint64(frames[last][:17:17], uint64(cfg.Prefixes+1))},
		{name: "truncated", want: "truncated", day: last, lo: lo, hi: hi, data: frames[last][:len(frames[last])/2]},
		{name: "trailing bytes on a header-only day", want: "trailing", day: 0, lo: lo, hi: hi,
			data: append(bytes.Clone(frames[0]), 0xAB)},
		{name: "day count differs from an earlier shard", want: "earlier shards", day: last, lo: lo, hi: hi,
			data: setU64(frames[last], stateOffset, uint64(cfg.Days-1)), mergedFirst: true},
	}
	for _, h := range hostileFrames(t, cfg, w.Deployment.Backbone.NumSites(), frames[last], lo, hi) {
		cases = append(cases, mergeCase{name: h.name, want: h.want, day: last, lo: lo, hi: hi, data: h.data})
	}
	for _, c := range cases {
		ss := fresh()
		if c.mergedFirst {
			if err := ss.MergeShardDay(last, lo, hi, frames[last]); err != nil {
				t.Fatalf("%s: valid frame rejected: %v", c.name, err)
			}
		}
		err := ss.MergeShardDay(c.day, c.lo, c.hi, c.data)
		if err == nil {
			t.Errorf("%s: malformed frame accepted", c.name)
		} else if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: rejected with %q, want the %q check", c.name, err, c.want)
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

// stateOffset is where a last-day frame's state starts: after the magic
// byte and the day, lo and hi words.
const stateOffset = 1 + 3*8

// setU64 returns a copy of frame with the 8-byte word at off set to v.
func setU64(frame []byte, off int, v uint64) []byte {
	out := bytes.Clone(frame)
	binary.LittleEndian.PutUint64(out[off:], v)
	return out
}

type hostileFrame struct {
	name, want string
	data       []byte
}

// hostileFrames are last-day frames for [lo, hi) that a broken or hostile
// worker could send. Each is the valid frame with one defect, and want
// names the check that must reject it. Two counts are chosen so that
// their byte size wraps uint64 to a handful of bytes.
func hostileFrames(t testing.TB, cfg sim.Config, sites int, valid []byte, lo, hi int) []hostileFrame {
	t.Helper()
	const days, rows = stateOffset, stateOffset + 8 // the two counts' offsets
	n := int(binary.LittleEndian.Uint64(valid[rows:]))
	if n == 0 {
		t.Fatal("fixture shard served no day-0 rows")
	}
	row0 := rows + 8
	clients := row0 + n*rowBytes
	client0 := clients + 8
	setByte := func(off int, v byte) []byte {
		out := bytes.Clone(valid)
		out[off] = v
		return out
	}
	switched := bytes.Clone(valid)
	binary.LittleEndian.PutUint32(switched[client0:], uint32(cfg.Days+1))
	belowUnseen := unseen - 1
	return []hostileFrame{
		{"zero days", "day count", setU64(valid, days, 0)},
		{"more days than configured", "day count", setU64(valid, days, uint64(cfg.Days+1))},
		{"row count past the bytes", "overrun", setU64(valid, rows, uint64((len(valid)-row0)/rowBytes+1))},
		{"row count a million past the bytes", "overrun", setU64(valid, rows, 1<<20)},
		{"row count whose size wraps to 40 bytes", "overrun", setU64(valid, rows, 1<<64/rowBytes+1)},
		{"front-end past the backbone", "backbone", setU64(valid, row0, uint64(sites))},
		{"ingress past the backbone", "backbone", setU64(valid, row0+8, 1<<40)},
		{"row with no queries", "queries", setU64(valid, row0+16, 0)},
		{"per-client section one short", "per-client section holds", setU64(valid, clients, uint64(hi-lo-1))},
		{"per-client count whose size wraps to 4 bytes", "per-client section holds", setU64(valid, clients, 1<<64/clientBytes+1)},
		{"switch days past the day count", "switched on", switched},
		{"window state below unseen", "window state", setByte(client0+4, byte(belowUnseen))},
		{"window state at the window's end", "window state", setByte(client0+4, byte(min(figure7Week, cfg.Days)))},
		{"trailing bytes", "trailing", append(bytes.Clone(valid), 0xAB)},
	}
}

// FuzzMergeShardDay checks the coordinator's decoder of worker frames —
// untrusted bytes from another process — for three properties: neither
// the merge nor rendering what it accepted panics, every frame a
// ShardObserver encodes is accepted, and a merge, accepted or not, grows
// the suite's served rows by no more than the rows its frame's bytes
// could hold, up to Go's size-class rounding. The day and shard range are
// the coordinator's own (trusted) values.
func FuzzMergeShardDay(f *testing.F) {
	cfg := testutil.TinyConfig(5)
	w, err := sim.BuildWorld(cfg)
	if err != nil {
		f.Fatal(err)
	}
	const lo, hi = 10, 20
	frames := shardFrames(f, cfg, w, lo, hi)
	last := cfg.Days - 1
	for day, frame := range frames {
		f.Add(uint8(day), frame)
	}
	for _, h := range hostileFrames(f, cfg, w.Deployment.Backbone.NumSites(), frames[last], lo, hi) {
		f.Add(uint8(last), h.data)
	}
	f.Fuzz(func(t *testing.T, day uint8, data []byte) {
		d := int(day) % cfg.Days
		ss := NewStreamSuite(cfg, w)
		limit := cap(slices.Grow(ss.served, len(data)/rowBytes))
		err := ss.MergeShardDay(d, lo, hi, data)
		if cap(ss.served) > limit {
			t.Fatalf("a %d-byte frame grew the served rows to %d (limit %d)", len(data), cap(ss.served), limit)
		}
		if err != nil {
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
