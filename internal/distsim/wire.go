// Package distsim distributes a streaming simulation across a fleet of
// worker processes. The coordinator splits the client population into
// contiguous prefix-range shards, hands each shard to a worker (a
// re-exec of the current binary, or an in-process goroutine speaking the
// same protocol), and folds the workers' day frames into one
// experiments.StreamSuite — in shard order, so the merged analysis is
// byte-identical to a single-process run over the same configuration.
// Each shard's analysis state travels once, on the last day's frame.
//
// For load-managed runs the day loop adds a two-phase demand exchange:
// every worker reports its shard's offered load, the coordinator reduces
// the per-site vectors (integer-exact sums) and broadcasts the global
// demand, and every worker steps its policy replica on the same numbers
// — keeping the control state machines bitwise-identical across the
// fleet.
package distsim

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net"
	"time"
)

// Frame types. A frame on the wire is a 4-byte little-endian payload
// length, one type byte, then the payload.
type frameType byte

const (
	frameConfig   frameType = 1 // coordinator → worker: gob(wireConfig)
	frameHello    frameType = 2 // worker → coordinator: world built, empty
	frameCapsPart frameType = 3 // worker → coordinator: shard load matrix
	frameCaps     frameType = 4 // coordinator → worker: derived capacities, one per site
	frameDemand   frameType = 5 // worker → coordinator: shard demand for one day, one per site
	frameGlobal   frameType = 6 // coordinator → worker: reduced global demand, one per site
	frameDay      frameType = 7 // worker → coordinator: one day's analysis frame + utilization
	frameDone     frameType = 8 // worker → coordinator: gob(WorkerStats)
	frameError    frameType = 9 // either direction: failure message, then hang up
)

// maxFramePayload bounds a single frame. The last day's frame carries the
// shard's analysis state (~60 B/client), so paper-scale shards produce
// frames of tens of MB; 2 GiB is the protocol's hard cap and comfortably
// above any real shard.
const maxFramePayload = 2 << 30

// frameChunk is the most read allocates ahead of the payload bytes it
// has received. A frame of up to one chunk gets its whole buffer up
// front; a larger one grows the buffer geometrically as the payload
// arrives, so a header alone cannot make the reader allocate up to
// maxFramePayload.
const frameChunk = 1 << 20

// frameConn frames a stream connection. Reads reuse one buffer (the
// returned payload is valid until the next read). Each end of a
// connection has one writing goroutine, so writes need no lock.
type frameConn struct {
	conn net.Conn
	hdr  [5]byte
	rbuf []byte
}

func newFrameConn(conn net.Conn) *frameConn { return &frameConn{conn: conn} }

// write sends one frame, bounded by the absolute deadline.
func (f *frameConn) write(t frameType, payload []byte, deadline time.Time) error {
	if len(payload) > maxFramePayload {
		return fmt.Errorf("distsim: frame payload %d exceeds protocol cap", len(payload))
	}
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
// until the next read. The frameConn keeps the buffer a read grew, even
// one that failed, for the next read to reuse.
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
	size := int(n)
	buf := f.rbuf[:0]
	if cap(buf) < size && size <= frameChunk {
		buf = make([]byte, 0, size)
	}
	for len(buf) < size {
		if len(buf) == cap(buf) {
			grown := make([]byte, len(buf), min(size, max(2*cap(buf), frameChunk)))
			copy(grown, buf)
			buf = grown
		}
		m, err := io.ReadFull(f.conn, buf[len(buf):min(size, cap(buf))])
		buf = buf[:len(buf)+m]
		f.rbuf = buf
		if err != nil {
			if err == io.EOF && len(buf) > 0 {
				err = io.ErrUnexpectedEOF
			}
			return 0, nil, fmt.Errorf("distsim: reading frame payload: %w", err)
		}
	}
	return t, buf, nil
}

// readData returns the next frame, surfacing a frameError payload as an
// error.
func (f *frameConn) readData(deadline time.Time) (frameType, []byte, error) {
	t, payload, err := f.read(deadline)
	if err != nil {
		return 0, nil, err
	}
	if t == frameError {
		return 0, nil, fmt.Errorf("distsim: peer failed: %s", payload)
	}
	return t, payload, nil
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

// appendMatrix encodes a []float64 verbatim: a shard load matrix, or a
// per-site vector of capacities or demand.
func appendMatrix(dst []byte, m []float64) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, uint64(len(m)))
	for _, v := range m {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return dst
}

// decodeMatrix adds an encoded []float64 into dst, whose length the
// encoding must match: the coordinator's reduce adds every shard's
// payload into one sum, and a decode adds into a cleared vector. Every
// cell on the wire is a load, a demand or a capacity, so a cell that is
// negative or not finite, or a sum that overflows, is an error.
func decodeMatrix(dst []float64, data []byte) error {
	if len(data) < 8 {
		return fmt.Errorf("distsim: truncated matrix")
	}
	n := binary.LittleEndian.Uint64(data)
	data = data[8:]
	if n != uint64(len(data))/8 || len(data)%8 != 0 {
		return fmt.Errorf("distsim: matrix payload is %d bytes for %d cells", len(data), n)
	}
	if uint64(len(dst)) != n {
		return fmt.Errorf("distsim: matrix has %d cells, want %d", n, len(dst))
	}
	for i := range dst {
		v := math.Float64frombits(binary.LittleEndian.Uint64(data))
		data = data[8:]
		if !(v >= 0) || math.IsInf(v, 1) {
			return fmt.Errorf("distsim: matrix cell %d is %v, want a finite non-negative value", i, v)
		}
		if dst[i] += v; math.IsInf(dst[i], 1) {
			return fmt.Errorf("distsim: matrix cell %d overflows", i)
		}
	}
	return nil
}
