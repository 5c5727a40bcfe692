// Package distsim distributes a streaming simulation across a fleet of
// worker processes. The coordinator splits the client population into
// contiguous prefix-range shards, hands each shard to a worker (a
// re-exec of the current binary, or an in-process goroutine speaking the
// same protocol), and folds the workers' per-day encoded deltas into one
// experiments.StreamSuite — in shard order, so the merged analysis is
// byte-identical to a single-process run over the same configuration.
//
// For load-managed runs the day loop adds a two-phase demand exchange:
// every worker reports its shard's offered load, the coordinator reduces
// the maps (integer-exact sums) and broadcasts the global demand, and
// every worker steps its policy replica on the same numbers — keeping
// the control state machines bitwise-identical across the fleet.
package distsim

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net"
	"sort"
	"sync"
	"time"

	"anycastcdn/internal/topology"
)

// Frame types. A frame on the wire is a 4-byte little-endian payload
// length, one type byte, then the payload.
type frameType byte

const (
	frameConfig    frameType = 1 // coordinator → worker: gob(wireConfig)
	frameHello     frameType = 2 // worker → coordinator: world built, empty
	frameCapsPart  frameType = 3 // worker → coordinator: shard load matrix
	frameCaps      frameType = 4 // coordinator → worker: derived capacities
	frameDemand    frameType = 5 // worker → coordinator: shard demand for one day
	frameGlobal    frameType = 6 // coordinator → worker: reduced global demand
	frameDay       frameType = 7 // worker → coordinator: one day's delta + utilization
	frameDone      frameType = 8 // worker → coordinator: gob(WorkerStats)
	frameError     frameType = 9 // either direction: failure message, then hang up
	frameHeartbeat frameType = 10 // worker → coordinator: liveness, empty
)

// maxFramePayload bounds a single frame. Day-0 deltas carry per-client
// sections (~100 B/client), so paper-scale shards produce frames in the
// hundreds of MB; 2 GiB is the protocol's hard cap and comfortably above
// any real shard.
const maxFramePayload = 2 << 30

// frameConn frames a stream connection. Reads reuse one buffer (the
// returned payload is valid until the next read); writes are serialized
// by a mutex so the heartbeat goroutine can interleave with the
// protocol's own sends.
type frameConn struct {
	conn net.Conn
	wmu  sync.Mutex
	hdr  [5]byte
	rbuf []byte
}

func newFrameConn(conn net.Conn) *frameConn { return &frameConn{conn: conn} }

// write sends one frame, bounded by the absolute deadline.
func (f *frameConn) write(t frameType, payload []byte, deadline time.Time) error {
	if len(payload) > maxFramePayload {
		return fmt.Errorf("distsim: frame payload %d exceeds protocol cap", len(payload))
	}
	f.wmu.Lock()
	defer f.wmu.Unlock()
	if err := f.conn.SetWriteDeadline(deadline); err != nil {
		return err
	}
	var hdr [5]byte
	binary.LittleEndian.PutUint32(hdr[:4], uint32(len(payload)))
	hdr[4] = byte(t)
	if _, err := f.conn.Write(hdr[:]); err != nil {
		return fmt.Errorf("distsim: writing frame header: %w", err)
	}
	if _, err := f.conn.Write(payload); err != nil {
		return fmt.Errorf("distsim: writing frame payload: %w", err)
	}
	return nil
}

// read returns the next frame. The deadline is absolute and applies to
// the whole frame; the payload slice is owned by the frameConn and valid
// until the next read.
func (f *frameConn) read(deadline time.Time) (frameType, []byte, error) {
	if err := f.conn.SetReadDeadline(deadline); err != nil {
		return 0, nil, err
	}
	if _, err := io.ReadFull(f.conn, f.hdr[:]); err != nil {
		return 0, nil, fmt.Errorf("distsim: reading frame header: %w", err)
	}
	n := binary.LittleEndian.Uint32(f.hdr[:4])
	t := frameType(f.hdr[4])
	if n > maxFramePayload {
		return 0, nil, fmt.Errorf("distsim: frame payload %d exceeds protocol cap", n)
	}
	if cap(f.rbuf) < int(n) {
		f.rbuf = make([]byte, n)
	}
	f.rbuf = f.rbuf[:n]
	if _, err := io.ReadFull(f.conn, f.rbuf); err != nil {
		return 0, nil, fmt.Errorf("distsim: reading frame payload: %w", err)
	}
	return t, f.rbuf, nil
}

// readData returns the next non-heartbeat frame. Heartbeats prove the
// peer process is alive but deliberately do NOT extend the deadline: the
// deadline is the stall bound on the EXPECTED frame, so a worker that
// keeps heartbeating while its day loop is wedged still surfaces as a
// stall instead of hanging the coordinator forever. A frameError payload
// is surfaced as an error.
func (f *frameConn) readData(deadline time.Time) (frameType, []byte, error) {
	for {
		t, payload, err := f.read(deadline)
		if err != nil {
			return 0, nil, err
		}
		if t == frameHeartbeat {
			continue
		}
		if t == frameError {
			return 0, nil, fmt.Errorf("distsim: peer failed: %s", payload)
		}
		return t, payload, nil
	}
}

// expect reads the next data frame and requires it to be of type want.
func (f *frameConn) expect(want frameType, deadline time.Time) ([]byte, error) {
	t, payload, err := f.readData(deadline)
	if err != nil {
		return nil, err
	}
	if t != want {
		return nil, fmt.Errorf("distsim: got frame type %d, want %d", t, want)
	}
	return payload, nil
}

// appendMatrix encodes a []float64 (the shard load matrix) verbatim.
func appendMatrix(dst []byte, m []float64) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, uint64(len(m)))
	for _, v := range m {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return dst
}

// decodeMatrix decodes an encoded []float64, adding into dst when dst is
// already sized (the coordinator's reduce) or allocating it otherwise.
func decodeMatrix(dst []float64, data []byte) ([]float64, error) {
	if len(data) < 8 {
		return nil, fmt.Errorf("distsim: truncated matrix")
	}
	n := binary.LittleEndian.Uint64(data)
	data = data[8:]
	if n != uint64(len(data))/8 || len(data)%8 != 0 {
		return nil, fmt.Errorf("distsim: matrix payload is %d bytes for %d cells", len(data), n)
	}
	if dst == nil {
		dst = make([]float64, n)
	}
	if uint64(len(dst)) != n {
		return nil, fmt.Errorf("distsim: matrix has %d cells, want %d", n, len(dst))
	}
	for i := range dst {
		dst[i] += math.Float64frombits(binary.LittleEndian.Uint64(data))
		data = data[8:]
	}
	return dst, nil
}

// appendSiteMap encodes a site→value map as (site, value) pairs sorted
// by site ID, so identical maps produce identical bytes.
func appendSiteMap(dst []byte, m map[topology.SiteID]float64, scratch []topology.SiteID) ([]byte, []topology.SiteID) {
	scratch = scratch[:0]
	//replay:commutative keys only; sorted immediately below, so collection order is discarded
	for s := range m {
		scratch = append(scratch, s)
	}
	sort.Slice(scratch, func(i, j int) bool { return scratch[i] < scratch[j] })
	dst = binary.LittleEndian.AppendUint64(dst, uint64(len(scratch)))
	for _, s := range scratch {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(s))
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(m[s]))
	}
	return dst, scratch
}

// decodeSiteMap decodes (site, value) pairs. With add=false the map is
// cleared first (decode); with add=true values accumulate (the demand
// reduce — integer-valued, so the sums are exact in any arrival order).
func decodeSiteMap(m map[topology.SiteID]float64, data []byte, add bool) error {
	if len(data) < 8 {
		return fmt.Errorf("distsim: truncated site map")
	}
	n := binary.LittleEndian.Uint64(data)
	data = data[8:]
	if n != uint64(len(data))/16 || len(data)%16 != 0 {
		return fmt.Errorf("distsim: site map payload is %d bytes for %d pairs", len(data), n)
	}
	if !add {
		clear(m)
	}
	for i := uint64(0); i < n; i++ {
		s := topology.SiteID(binary.LittleEndian.Uint64(data))
		v := math.Float64frombits(binary.LittleEndian.Uint64(data[8:]))
		data = data[16:]
		if add {
			m[s] += v
		} else {
			m[s] = v
		}
	}
	return nil
}
