package experiments

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"anycastcdn/internal/geo"
	"anycastcdn/internal/sim"
	"anycastcdn/internal/stats"
	"anycastcdn/internal/topology"
	"anycastcdn/internal/units"
)

// This file is the experiment layer's distribution seam. A worker runs
// sim.StreamShard over its client range and folds each day through a
// ShardObserver, which emits one compact encoded delta per day; the
// coordinator folds the deltas — in shard order within each day — into
// its own StreamSuite with MergeShardDay. The encoding is chosen so the
// merged suite is BYTE-IDENTICAL to one that observed the whole stream
// in a single process:
//
//   - order-sensitive float state (Figure 4's sample runs, the catchment
//     volume sums) travels as the raw per-record values in client order
//     and is replayed through the same accumulation code;
//   - integer-exact state (switch/total day counters, day-0 demand,
//     Figure 8's unweighted sketch bins) travels as partial sums or ID
//     lists, which reduce exactly in any association order.
//
// Everything here observes only day-local state, so a worker needs no
// cross-day buffers beyond the aggregate deltas themselves.

// shardDayMagic versions the per-day delta layout. Bump on any change so
// a coordinator never misreads a frame from a mismatched worker binary.
const shardDayMagic = 0xD7

// ShardObserver turns one shard's streamed days into encoded deltas.
type ShardObserver struct {
	cfg    sim.Config
	w      *sim.World
	lo, hi int

	// fig4 accumulates the shard's day-0 distance samples; its builders
	// are encoded into the day-0 delta and dropped afterwards.
	fig4 *figure4Agg
	// sketch is the per-day Figure 8 delta, reset every day.
	sketch *stats.QuantileSketch[units.Kilometers]
	// Reused per-day scratch.
	switched []uint64
	fig7sw   []uint64
	zeroQ    []uint64
	shed     map[topology.SiteID]float64
}

// NewShardObserver prepares a worker-side observer for clients [lo, hi).
// The world's population must cover the range (the observer resolves
// record client IDs against it) — a full build or a sim.BuildShardWorld
// for the same range both work; lo/hi also stamp the frame headers the
// coordinator validates.
func NewShardObserver(cfg sim.Config, w *sim.World, lo, hi int) (*ShardObserver, error) {
	base := int(w.Population.Base)
	if lo < base || hi < lo || hi > base+len(w.Population.Clients) {
		return nil, fmt.Errorf("experiments: shard range [%d, %d) outside population [%d, %d)",
			lo, hi, base, base+len(w.Population.Clients))
	}
	sk, err := stats.NewLogQuantileSketch(fig8SketchLo, fig8SketchHi, fig8SketchBins)
	if err != nil {
		return nil, err
	}
	return &ShardObserver{
		cfg:    cfg,
		w:      w,
		lo:     lo,
		hi:     hi,
		fig4:   newFigure4Agg(cfg, w),
		sketch: sk,
		shed:   map[topology.SiteID]float64{},
	}, nil
}

// AppendDay consumes one streamed day (the sim.StreamShard callback's
// DayResult, local indices, global client IDs) and appends its encoded
// delta to dst, returning the extended slice. Steady-state calls reuse
// the observer's scratch and dst's capacity; only day 0 allocates (its
// delta carries the per-record day-0 sections).
func (o *ShardObserver) AppendDay(d sim.DayResult, dst []byte) []byte {
	bb := o.w.Deployment.Backbone
	o.switched = o.switched[:0]
	o.fig7sw = o.fig7sw[:0]
	o.zeroQ = o.zeroQ[:0]
	o.sketch.Reset()

	dst = append(dst, shardDayMagic)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(d.Day))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(o.lo))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(o.hi))

	if d.Day == 0 {
		// Figure 4 sample runs: observe in client order, then ship the
		// four builders verbatim.
		for _, r := range d.Passive {
			o.fig4.observe(r)
		}
		dst = o.fig4.wToFE.Encode(dst)
		dst = o.fig4.uToFE.Encode(dst)
		dst = o.fig4.wPast.Encode(dst)
		dst = o.fig4.uPast.Encode(dst)
		o.fig4 = nil // day 0 is done; free the sample runs

		// Catchment tuples, one per served day-0 record, in client order.
		var count uint64
		lenPos := len(dst)
		dst = binary.LittleEndian.AppendUint64(dst, 0)
		for _, r := range d.Passive {
			if r.Queries == 0 {
				continue
			}
			c := o.w.Population.Client(r.ClientID)
			dst = binary.LittleEndian.AppendUint64(dst, uint64(r.FrontEnd))
			dst = putFloat(dst, c.Volume)
			dst = putFloat(dst, float64(geo.DistanceKm(c.Point, bb.Site(r.FrontEnd).Metro.Point)))
			count++
		}
		binary.LittleEndian.PutUint64(dst[lenPos:], count)

		// Day-0 demand by ingress (integer-valued partial sums), sorted by
		// site so the frame bytes are deterministic.
		clear(o.shed)
		for i, r := range d.Passive {
			if r.Queries == 0 {
				continue
			}
			o.shed[d.Assignments[i].Ingress] += float64(r.Queries)
		}
		sites := make([]topology.SiteID, 0, len(o.shed))
		//replay:commutative keys only; sorted immediately below, so collection order is discarded
		for s := range o.shed {
			sites = append(sites, s)
		}
		sort.Slice(sites, func(i, j int) bool { return sites[i] < sites[j] })
		dst = binary.LittleEndian.AppendUint64(dst, uint64(len(sites)))
		for _, s := range sites {
			dst = binary.LittleEndian.AppendUint64(dst, uint64(s))
			dst = putFloat(dst, o.shed[s])
		}
	}

	// Switch and activity ID lists (ascending client order by
	// construction) plus the day's sketch delta.
	for _, r := range d.Passive {
		if r.FrontEndChanged() {
			o.switched = append(o.switched, r.ClientID)
			if d.Day < figure7Week && r.Queries > 0 {
				o.fig7sw = append(o.fig7sw, r.ClientID)
			}
			if r.Queries > 0 {
				from := bb.Site(r.PrevFrontEnd).Metro.Point
				to := bb.Site(r.FrontEnd).Metro.Point
				o.sketch.Add(geo.DistanceKm(from, to))
			}
		}
		if d.Day < figure7Week && r.Queries == 0 {
			o.zeroQ = append(o.zeroQ, r.ClientID)
		}
	}
	dst = appendIDList(dst, o.switched)
	if d.Day < figure7Week {
		dst = appendIDList(dst, o.zeroQ)
		dst = appendIDList(dst, o.fig7sw)
	}
	return o.sketch.Encode(dst)
}

// MergeShardDay folds one shard's encoded day delta into the suite. The
// caller must merge each day's shards in ascending shard order, and days
// in ascending day order — the orders under which the replayed float
// operations coincide exactly with a single-process run. The frame must
// be consumed exactly; day, lo and hi must match the frame header.
func (s *StreamSuite) MergeShardDay(day, lo, hi int, data []byte) error {
	if len(data) < 1+3*8 || data[0] != shardDayMagic {
		return fmt.Errorf("experiments: bad shard-day frame header")
	}
	data = data[1:]
	gotDay := binary.LittleEndian.Uint64(data)
	gotLo := binary.LittleEndian.Uint64(data[8:])
	gotHi := binary.LittleEndian.Uint64(data[16:])
	data = data[24:]
	if int(gotDay) != day || int(gotLo) != lo || int(gotHi) != hi {
		return fmt.Errorf("experiments: shard-day frame is (day %d, [%d, %d)), want (day %d, [%d, %d))",
			gotDay, gotLo, gotHi, day, lo, hi)
	}
	if lo < 0 || hi < lo || hi > len(s.tcp.totalDays) {
		return fmt.Errorf("experiments: shard range [%d, %d) outside %d clients", lo, hi, len(s.tcp.totalDays))
	}

	var err error
	if day == 0 {
		for _, b := range []*stats.ECDFBuilder[units.Kilometers]{
			&s.fig4.wToFE, &s.fig4.uToFE, &s.fig4.wPast, &s.fig4.uPast,
		} {
			if data, err = b.MergeEncoded(data); err != nil {
				return err
			}
		}
		var count uint64
		if count, data, err = getU64(data); err != nil {
			return err
		}
		if count > uint64(len(data))/24 {
			return fmt.Errorf("experiments: truncated catchment tuples")
		}
		for i := uint64(0); i < count; i++ {
			fe, err := s.site(data)
			if err != nil {
				return err
			}
			vol := math.Float64frombits(binary.LittleEndian.Uint64(data[8:]))
			dist := math.Float64frombits(binary.LittleEndian.Uint64(data[16:]))
			data = data[24:]
			s.cat.apply(fe, vol, units.Kilometers(dist))
		}
		if count, data, err = getU64(data); err != nil {
			return err
		}
		if count > uint64(len(data))/16 {
			return fmt.Errorf("experiments: truncated demand pairs")
		}
		for i := uint64(0); i < count; i++ {
			site, err := s.site(data)
			if err != nil {
				return err
			}
			s.shed.demand[site] += math.Float64frombits(binary.LittleEndian.Uint64(data[8:]))
			data = data[16:]
		}
	}

	switched, data, err := idList(data, lo, hi)
	if err != nil {
		return err
	}
	for ; len(switched) > 0; switched = switched[8:] {
		s.tcp.switchDays[binary.LittleEndian.Uint64(switched)]++
	}
	for i := lo; i < hi; i++ {
		s.tcp.totalDays[i]++
	}
	if day < s.fig7.days {
		zeroQ, rest, err := idList(data, lo, hi)
		if err != nil {
			return err
		}
		// Active = every client in range with traffic today; walk the
		// (ascending) zero-query list alongside the range so clients made
		// active by an earlier day are never cleared.
		for i := lo; i < hi; i++ {
			if len(zeroQ) > 0 && binary.LittleEndian.Uint64(zeroQ) == uint64(i) {
				zeroQ = zeroQ[8:]
				continue
			}
			s.fig7.active[i] = true
		}
		fig7sw, rest, err := idList(rest, lo, hi)
		if err != nil {
			return err
		}
		for ; len(fig7sw) > 0; fig7sw = fig7sw[8:] {
			id := binary.LittleEndian.Uint64(fig7sw)
			if d := s.fig7.firstChange[id]; d < 0 || int32(day) < d {
				s.fig7.firstChange[id] = int32(day)
			}
		}
		data = rest
	}
	if data, err = s.fig8.sketch.MergeEncoded(data); err != nil {
		return err
	}
	if len(data) != 0 {
		return fmt.Errorf("experiments: %d trailing bytes in shard-day frame", len(data))
	}
	return nil
}

// site decodes a site ID from the front of data. IDs outside the backbone
// are rejected here because the reports index the backbone with them.
func (s *StreamSuite) site(data []byte) (topology.SiteID, error) {
	id := binary.LittleEndian.Uint64(data)
	if n := s.World.Deployment.Backbone.NumSites(); id >= uint64(n) {
		return 0, fmt.Errorf("experiments: site %d outside the %d-site backbone", id, n)
	}
	return topology.SiteID(id), nil
}

func putFloat(dst []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
}

func appendIDList(dst []byte, ids []uint64) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, uint64(len(ids)))
	for _, id := range ids {
		dst = binary.LittleEndian.AppendUint64(dst, id)
	}
	return dst
}

// idList slices one encoded ID list off the front of data without
// copying: it returns the raw 8-byte-per-ID payload (bounds-validated)
// and the remainder — the merge loop walks the payload in place, keeping
// steady-state merging allocation-free.
func idList(data []byte, lo, hi int) (payload, rest []byte, err error) {
	count, data, err := getU64(data)
	if err != nil {
		return nil, nil, err
	}
	if count > uint64(len(data))/8 {
		return nil, nil, fmt.Errorf("experiments: truncated ID list")
	}
	payload, rest = data[:8*count], data[8*count:]
	for p := payload; len(p) > 0; p = p[8:] {
		if id := binary.LittleEndian.Uint64(p); id < uint64(lo) || id >= uint64(hi) {
			return nil, nil, fmt.Errorf("experiments: client ID %d outside shard [%d, %d)", id, lo, hi)
		}
	}
	return payload, rest, nil
}

func getU64(data []byte) (uint64, []byte, error) {
	if len(data) < 8 {
		return 0, nil, fmt.Errorf("experiments: truncated shard-day frame")
	}
	return binary.LittleEndian.Uint64(data), data[8:], nil
}
