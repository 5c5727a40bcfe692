package distsim

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"net"
	"testing"
	"time"

	"anycastcdn/internal/faults"
	"anycastcdn/internal/load"
	"anycastcdn/internal/testutil"
	"anycastcdn/internal/topology"
)

// wireFrame returns one frame as it crosses the socket.
func wireFrame(t frameType, payload []byte) []byte {
	b := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	return append(append(b, byte(t)), payload...)
}

// FuzzFrameRead feeds arbitrary bytes from a peer process to the frame
// reader and reads frames until it errors. It must never panic or hang,
// never return a payload longer than the bytes sent, and every payload
// must survive the matrix and site-map decoders.
func FuzzFrameRead(f *testing.F) {
	demand, _ := appendSiteMap(nil, map[topology.SiteID]float64{0: 120, 3: 7}, nil)
	f.Add(wireFrame(frameDemand, demand))
	f.Add(wireFrame(frameCapsPart, appendMatrix(nil, []float64{1.5, 0, 42})))
	f.Add(append(wireFrame(frameHeartbeat, nil), wireFrame(frameError, []byte("worker 2: boom"))...))
	f.Add(wireFrame(frameDay, nil)[:3])                                           // a header cut short
	f.Add(append(binary.LittleEndian.AppendUint32(nil, 256<<20), byte(frameDay))) // claims 256 MiB
	f.Fuzz(func(t *testing.T, data []byte) {
		peer, conn := net.Pipe()
		sent := make(chan struct{})
		go func() {
			defer close(sent)
			_, _ = peer.Write(data) // fails once the reader hangs up early
			_ = peer.Close()
		}()
		defer func() { _ = conn.Close(); <-sent }()
		fc := newFrameConn(conn)
		sites := map[topology.SiteID]float64{}
		for {
			_, payload, err := fc.readData(time.Now().Add(10 * time.Second))
			if err != nil {
				return
			}
			if len(payload) > len(data) {
				t.Fatalf("read a %d-byte payload from %d bytes of input", len(payload), len(data))
			}
			_, _ = decodeMatrix(nil, payload)
			_ = decodeSiteMap(sites, payload, false)
		}
	})
}

// FuzzGobFrames decodes arbitrary bytes from a peer process as each of
// the protocol's two gob payloads: the Config frame a worker decodes and
// the Done frame's stats the coordinator decodes and checks. Neither may
// panic, and a decoded config goes through the validation a worker's
// world build applies.
func FuzzGobFrames(f *testing.F) {
	cfg := testutil.TinyConfig(1)
	cfg.Scenario = &faults.Scenario{Events: []faults.Event{{Kind: faults.Inflate, Target: "europe", Day: 1, Days: 2, ExtraMs: 25}}}
	cfg.LoadManager = &load.ManagerConfig{Policy: load.FastRoute}
	for _, v := range []any{
		wireConfig{Cfg: cfg, Shard: 1, Lo: 250, Hi: 500, HeartbeatEvery: time.Second, StallTimeout: time.Minute},
		WorkerStats{Shard: 1, Lo: 250, Hi: 500, Days: 5, Records: 1250, Beacons: 3000, PeakRSSBytes: 64 << 20},
	} {
		var b bytes.Buffer
		if err := gob.NewEncoder(&b).Encode(v); err != nil {
			f.Fatal(err)
		}
		f.Add(b.Bytes())
		f.Add(b.Bytes()[:b.Len()/2])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var wc wireConfig
		if gob.NewDecoder(bytes.NewReader(data)).Decode(&wc) == nil {
			_ = wc.Cfg.Validate()
		}
		var ws WorkerStats
		if gob.NewDecoder(bytes.NewReader(data)).Decode(&ws) == nil {
			_ = ws.check(1, 250, 500, 5)
		}
	})
}
