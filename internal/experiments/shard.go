package experiments

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"anycastcdn/internal/sim"
	"anycastcdn/internal/topology"
	"anycastcdn/internal/units"
)

// This file is the experiment layer's distribution seam. A worker folds
// its client range through a ShardObserver — a StreamSuite over [lo, hi)
// — and the coordinator merges each shard's state, in shard order, into
// its own StreamSuite with MergeShardDay. The state merges by
// construction, so the merged suite is BYTE-IDENTICAL to one that
// observed the whole stream in a single process: the served rows and the
// per-client arrays concatenate in client order, so every order-sensitive
// float sum the reports compute from them runs in the same order, and
// Figure 8's sketch holds integer-valued bins, which add exactly in any
// order. The state is complete only after the last day, so that day's
// frame carries it; every earlier frame is a bare header.

// shardDayMagic versions the frame layout. Bump on any change so a
// coordinator never misreads a frame from a mismatched worker binary.
const shardDayMagic = 0xD8

// Encoded sizes: a served row is seven 8-byte words (front-end, ingress,
// queries, then volume and the three distances as float64 bits); a client
// is its switch-day count (4 bytes) and window state (1 byte).
const (
	rowBytes    = 7 * 8
	clientBytes = 4 + 1
)

// ShardObserver is a worker's StreamSuite over its client range [lo, hi):
// it observes every streamed day and frames it for the coordinator.
type ShardObserver struct{ s *StreamSuite }

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
	return &ShardObserver{newStreamSuite(cfg, w, lo, hi)}, nil
}

// AppendDay observes one streamed day (the sim.StreamShard callback's
// DayResult, local indices, global client IDs) and appends its frame to
// dst, returning the extended slice: a header, followed on the
// configured last day by the observer's state. Only that day's frame
// grows with the shard.
func (o *ShardObserver) AppendDay(d sim.DayResult, dst []byte) []byte {
	o.s.observePassive(d)
	dst = append(dst, shardDayMagic)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(d.Day))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(o.s.lo))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(o.s.hi))
	if d.Day == o.s.Cfg.Days-1 {
		dst = o.s.appendState(dst)
	}
	return dst
}

// FrameLen returns the number of bytes AppendDay appends for day: the
// header, plus the observer's state on the last day. The state's size is
// set once day 0 is observed, so on any later day a caller that frames
// more behind the frame can size its buffer before AppendDay runs.
func (o *ShardObserver) FrameLen(day int) int {
	n := 1 + 3*8
	if day == o.s.Cfg.Days-1 {
		n += o.s.stateLen()
	}
	return n
}

// MergeShardDay folds one shard's frame for day into the suite. The
// caller must merge each day's shards in ascending shard order, and days
// in ascending day order: the last day's frames then append the shards'
// rows and per-client sections in client order. The frame must be
// consumed exactly; day, lo and hi must match the frame header.
func (s *StreamSuite) MergeShardDay(day, lo, hi int, data []byte) error {
	if len(data) < 1+3*8 || data[0] != shardDayMagic {
		return fmt.Errorf("experiments: bad shard-day frame header")
	}
	gotDay := binary.LittleEndian.Uint64(data[1:])
	gotLo := binary.LittleEndian.Uint64(data[9:])
	gotHi := binary.LittleEndian.Uint64(data[17:])
	data = data[25:]
	if int(gotDay) != day || int(gotLo) != lo || int(gotHi) != hi {
		return fmt.Errorf("experiments: shard-day frame is (day %d, [%d, %d)), want (day %d, [%d, %d))",
			gotDay, gotLo, gotHi, day, lo, hi)
	}
	if lo < s.lo || hi < lo || hi > s.hi {
		return fmt.Errorf("experiments: shard range [%d, %d) outside [%d, %d)", lo, hi, s.lo, s.hi)
	}
	var err error
	if day == s.Cfg.Days-1 {
		if data, err = s.mergeState(lo, hi, data); err != nil {
			return err
		}
	}
	if len(data) != 0 {
		return fmt.Errorf("experiments: %d trailing bytes in shard-day frame", len(data))
	}
	return nil
}

// appendState appends the suite's state to dst: the day count, the
// served rows, the per-client section, then Figure 8's sketch. dst grows
// once, to stateLen more bytes, before any of it is written: grown by
// appends from a header-sized buffer, a multi-megabyte state would
// allocate several times its own size on its way.
func (s *StreamSuite) appendState(dst []byte) []byte {
	dst = slices.Grow(dst, s.stateLen())
	le := binary.LittleEndian
	dst = le.AppendUint64(dst, uint64(s.days))
	dst = le.AppendUint64(dst, uint64(len(s.served)))
	for _, r := range s.served {
		dst = le.AppendUint64(dst, uint64(r.fe))
		dst = le.AppendUint64(dst, uint64(r.ingress))
		dst = le.AppendUint64(dst, uint64(r.queries))
		for _, f := range [...]float64{r.volume, float64(r.dist), float64(r.toFE), float64(r.past)} {
			dst = le.AppendUint64(dst, math.Float64bits(f))
		}
	}
	dst = le.AppendUint64(dst, uint64(len(s.window)))
	for i, st := range s.window {
		dst = le.AppendUint32(dst, uint32(s.switchDays[i]))
		dst = append(dst, byte(st))
	}
	return s.sketch.Encode(dst)
}

// stateLen is the number of bytes appendState appends.
func (s *StreamSuite) stateLen() int {
	return 8 + 8 + len(s.served)*rowBytes + 8 + len(s.window)*clientBytes + s.sketch.EncodedLen()
}

// mergeState folds one shard's encoded state for clients [lo, hi) into
// the suite and returns the unread remainder. The bytes come from another
// process, so anything a worker could not have produced is an error.
func (s *StreamSuite) mergeState(lo, hi int, data []byte) ([]byte, error) {
	le := binary.LittleEndian
	days, data, err := getU64(data)
	if err != nil {
		return nil, err
	}
	if days == 0 || days > uint64(s.Cfg.Days) {
		return nil, fmt.Errorf("experiments: shard state day count %d outside (0, %d]", days, s.Cfg.Days)
	}
	if s.days != 0 && uint64(s.days) != days {
		return nil, fmt.Errorf("experiments: shard state day count %d, earlier shards %d", days, s.days)
	}
	s.days = int(days)

	n, data, err := getU64(data)
	if err != nil {
		return nil, err
	}
	if n > uint64(len(data))/rowBytes {
		return nil, fmt.Errorf("experiments: %d served rows overrun the frame", n)
	}
	sites := uint64(s.World.Deployment.Backbone.NumSites())
	s.served = slices.Grow(s.served, int(n))
	for ; n > 0; n-- {
		var w [rowBytes / 8]uint64
		for k := range w {
			w[k] = le.Uint64(data[8*k:])
		}
		data = data[rowBytes:]
		if w[0] >= sites || w[1] >= sites {
			return nil, fmt.Errorf("experiments: served row site %d or %d outside the %d-site backbone", w[0], w[1], sites)
		}
		if w[2] == 0 || w[2] > math.MaxInt {
			return nil, fmt.Errorf("experiments: served row with %d queries", w[2])
		}
		s.served = append(s.served, servedRow{
			fe:      topology.SiteID(w[0]),
			ingress: topology.SiteID(w[1]),
			queries: int(w[2]),
			volume:  math.Float64frombits(w[3]),
			dist:    units.Kilometers(math.Float64frombits(w[4])),
			toFE:    units.Kilometers(math.Float64frombits(w[5])),
			past:    units.Kilometers(math.Float64frombits(w[6])),
		})
	}

	if n, data, err = getU64(data); err != nil {
		return nil, err
	}
	if n != uint64(hi-lo) {
		return nil, fmt.Errorf("experiments: per-client section holds %d clients, shard [%d, %d) has %d", n, lo, hi, hi-lo)
	}
	if n > uint64(len(data))/clientBytes {
		return nil, fmt.Errorf("experiments: per-client section overruns the frame")
	}
	week := int8(min(figure7Week, s.days))
	switchDays, window := s.switchDays[lo-s.lo:hi-s.lo], s.window[lo-s.lo:hi-s.lo]
	for i := range window {
		k, st := le.Uint32(data), int8(data[4])
		if uint64(k) > days {
			return nil, fmt.Errorf("experiments: client %d switched on %d of %d days", lo+i, k, days)
		}
		if st < unseen || st >= week {
			return nil, fmt.Errorf("experiments: client %d window state %d outside [%d, %d)", lo+i, st, unseen, week)
		}
		switchDays[i], window[i] = int32(k), st
		data = data[clientBytes:]
	}
	return s.sketch.MergeEncoded(data)
}

func getU64(data []byte) (uint64, []byte, error) {
	if len(data) < 8 {
		return 0, nil, fmt.Errorf("experiments: truncated shard-day frame")
	}
	return binary.LittleEndian.Uint64(data), data[8:], nil
}
