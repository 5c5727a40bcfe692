package distsim

import (
	"bytes"
	"encoding/binary"
	"net"
	"runtime"
	"testing"
	"time"
)

// TestFrameReadBoundsHostileHeader sends a header that claims a 256 MiB
// payload and then hangs up. The read must fail, and must not allocate
// the claimed size on the header's word alone.
func TestFrameReadBoundsHostileHeader(t *testing.T) {
	peer, conn := net.Pipe()
	defer conn.Close()
	go func() {
		var hdr [5]byte
		binary.LittleEndian.PutUint32(hdr[:4], 256<<20)
		hdr[4] = byte(frameDay)
		_, _ = peer.Write(hdr[:])
		_ = peer.Close()
	}()
	fc := newFrameConn(conn)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := fc.read(time.Now().Add(10 * time.Second))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("read of a truncated 256 MiB frame succeeded")
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 8<<20 {
		t.Fatalf("truncated 256 MiB frame allocated %d bytes, want < 8 MiB", alloc)
	}
}

// TestFrameReadGrowsAcrossChunks round-trips a small frame, then one
// several chunks long (which grows the reused buffer as it arrives),
// then a small one again that reads into the grown buffer.
func TestFrameReadGrowsAcrossChunks(t *testing.T) {
	peer, conn := net.Pipe()
	defer conn.Close()
	payloads := [][]byte{
		bytes.Repeat([]byte{1}, 100),
		make([]byte, 3*frameChunk+17),
		bytes.Repeat([]byte{3}, 5),
	}
	for i := range payloads[1] {
		payloads[1][i] = byte(i * 7)
	}
	errc := make(chan error, 1)
	go func() {
		w := newFrameConn(peer)
		deadline := time.Now().Add(10 * time.Second)
		for _, p := range payloads {
			if err := w.write(frameDay, p, deadline); err != nil {
				errc <- err
				return
			}
		}
		errc <- peer.Close()
	}()
	fc := newFrameConn(conn)
	for i, want := range payloads {
		typ, got, err := fc.read(time.Now().Add(10 * time.Second))
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if typ != frameDay || !bytes.Equal(got, want) {
			t.Fatalf("frame %d: got type %d, %d bytes; want type %d, %d bytes", i, typ, len(got), frameDay, len(want))
		}
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
}
