package distsim

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"math"
	"net"
	"os"
	"slices"
	"sync"
	"syscall"
	"time"

	"anycastcdn/internal/experiments"
	"anycastcdn/internal/sim"
)

// workerFD is the file descriptor a forked worker inherits its
// coordinator connection on (the first exec.Cmd ExtraFiles slot).
const workerFD = 3

// wireConfig is the coordinator's opening frame: the full simulation
// configuration plus this worker's shard assignment and the fleet's
// stall bound.
type wireConfig struct {
	Cfg          sim.Config
	Shard        int
	Lo, Hi       int
	StallTimeout time.Duration
}

// WorkerStats is a worker's closing report, carried on the Done frame.
type WorkerStats struct {
	Shard   int
	Lo, Hi  int
	Days    int
	Records int64
	Beacons int64
	// PeakRSSBytes is the worker process's maximum resident set size.
	// In-process workers report the shared process's peak.
	PeakRSSBytes int64
}

// check reports whether a Done frame's stats describe the assignment the
// coordinator made: shard's range [lo, hi) simulated for days days, one
// passive record per client-day, and a non-negative beacon count.
func (s WorkerStats) check(shard, lo, hi, days int) error {
	if s.Shard != shard || s.Lo != lo || s.Hi != hi || s.Days != days {
		return fmt.Errorf("report for shard %d [%d, %d) over %d days, assigned shard %d [%d, %d) over %d days",
			s.Shard, s.Lo, s.Hi, s.Days, shard, lo, hi, days)
	}
	if want := int64(hi-lo) * int64(days); s.Records != want {
		return fmt.Errorf("%d records reported, want %d", s.Records, want)
	}
	if s.Beacons < 0 {
		return fmt.Errorf("negative beacon count %d", s.Beacons)
	}
	return nil
}

// ServeFD runs the worker side of the protocol on the coordinator
// connection inherited at fd 3 — the entry point behind the binary's
// -worker flag.
func ServeFD(ctx context.Context) error {
	f := os.NewFile(workerFD, "distsim-coordinator")
	conn, err := net.FileConn(f)
	_ = f.Close() // FileConn dup'd the fd; the original is ours to drop
	if err != nil {
		return fmt.Errorf("distsim: fd %d is not a stream socket: %w", workerFD, err)
	}
	return Serve(ctx, conn)
}

// Serve runs the worker side of the protocol on conn: receive the
// configuration and shard range, build the world, stream the shard, and
// send one day frame per day. Any failure is reported to the
// coordinator as an Error frame before returning. Serve closes conn.
func Serve(ctx context.Context, conn net.Conn) error {
	defer conn.Close()
	fc := newFrameConn(conn)

	// Teardown joins every goroutine Serve starts. The watcher closes the
	// connection on ctx cancellation, failing every frame read and write
	// (a yanked deadline would be overwritten by the next frame's own).
	var wg sync.WaitGroup
	done := make(chan struct{})
	defer wg.Wait()
	defer close(done)
	wg.Add(1)
	go func() {
		defer wg.Done()
		select {
		case <-ctx.Done():
			// Teardown: unblocks any in-flight frame I/O; an error here
			// means the conn is already closed and nothing is blocked.
			_ = conn.Close()
		case <-done:
		}
	}()

	err := serve(ctx, fc)
	if err != nil {
		// Best effort: the coordinator may already be gone.
		fc.write(frameError, []byte(err.Error()), time.Now().Add(5*time.Second))
		if ctx.Err() != nil {
			return fmt.Errorf("distsim: worker canceled: %w", ctx.Err())
		}
	}
	return err
}

// worker is the per-run state of one serving worker.
type worker struct {
	fc    *frameConn
	wc    wireConfig
	stats WorkerStats

	// sendBuf accumulates each outbound payload; reused across days so
	// the steady-state day loop does not allocate frame memory.
	sendBuf []byte
	// sites is the backbone's site count, the length of every per-site
	// vector; global is the reusable decoded global-demand vector.
	sites  int
	global []float64
}

func serve(ctx context.Context, fc *frameConn) error {
	w := &worker{fc: fc}

	payload, err := fc.expect(frameConfig, time.Now().Add(time.Minute))
	if err != nil {
		return err
	}
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&w.wc); err != nil {
		return fmt.Errorf("distsim: decoding config: %w", err)
	}
	if w.wc.StallTimeout <= 0 {
		return fmt.Errorf("distsim: config carries no stall bound")
	}
	w.stats.Shard, w.stats.Lo, w.stats.Hi = w.wc.Shard, w.wc.Lo, w.wc.Hi

	// A shard world: only [Lo, Hi) is materialized, so a worker's resident
	// set scales with its shard, not the whole population — the full build
	// alone would bust the per-worker memory budget at paper scale.
	world, err := sim.BuildShardWorld(w.wc.Cfg, w.wc.Lo, w.wc.Hi)
	if err != nil {
		return fmt.Errorf("distsim: worker building world: %w", err)
	}
	if err := w.fc.write(frameHello, nil, w.deadline()); err != nil {
		return err
	}

	opts := sim.ShardOpts{Lo: w.wc.Lo, Hi: w.wc.Hi}
	if w.wc.Cfg.LoadManager != nil {
		opts.ExchangeLoad = w.exchangeLoad
		opts.ExchangeDemand = w.exchangeDemand
		w.sites = world.Deployment.Backbone.NumSites()
		w.global = make([]float64, w.sites)
	}

	obs, err := experiments.NewShardObserver(w.wc.Cfg, world, w.wc.Lo, w.wc.Hi)
	if err != nil {
		return err
	}
	err = sim.StreamShard(w.wc.Cfg, world, opts, func(d sim.DayResult) error {
		return w.sendDay(obs, d)
	})
	if err != nil {
		if ctx.Err() != nil {
			return fmt.Errorf("distsim: worker canceled: %w", ctx.Err())
		}
		return err
	}
	return w.sendDone()
}

// deadline is the stall bound on the next protocol step.
func (w *worker) deadline() time.Time { return time.Now().Add(w.wc.StallTimeout) }

// exchangeLoad is the capacity exchange, run once after the shard's
// schedule pass: send the shard's fault-free load matrix, and receive
// the fleet-derived capacities every replica will share, one per site.
func (w *worker) exchangeLoad(m []float64) ([]float64, error) {
	w.sendBuf = appendMatrix(w.sendBuf[:0], m)
	if err := w.fc.write(frameCapsPart, w.sendBuf, w.deadline()); err != nil {
		return nil, err
	}
	payload, err := w.fc.expect(frameCaps, w.deadline())
	if err != nil {
		return nil, err
	}
	caps := make([]float64, w.sites)
	if err := decodeMatrix(caps, payload); err != nil {
		return nil, fmt.Errorf("distsim: worker %d capacities: %w", w.wc.Shard, err)
	}
	return caps, nil
}

// exchangeDemand is the two-phase demand barrier: publish this shard's
// offered per-site load for the day, then block for the coordinator's
// global reduction. Every worker steps its policy replica on the same
// global vector, keeping control state bitwise-identical across the
// fleet.
func (w *worker) exchangeDemand(day int, shard []float64) ([]float64, error) {
	w.sendBuf = appendMatrix(w.sendBuf[:0], shard)
	if err := w.fc.write(frameDemand, w.sendBuf, w.deadline()); err != nil {
		return nil, err
	}
	payload, err := w.fc.expect(frameGlobal, w.deadline())
	if err != nil {
		return nil, err
	}
	clear(w.global)
	if err := decodeMatrix(w.global, payload); err != nil {
		return nil, fmt.Errorf("distsim: worker %d day %d global demand: %w", w.wc.Shard, day, err)
	}
	return w.global, nil
}

// sendDay sends one simulated day's Day frame. The payload buffer is
// reused across days.
func (w *worker) sendDay(obs *experiments.ShardObserver, d sim.DayResult) error {
	w.sendBuf = appendDayFrame(w.sendBuf[:0], obs, d)
	w.stats.Days++
	w.stats.Records += int64(len(d.Passive))
	w.stats.Beacons += int64(len(d.Beacons))
	return w.fc.write(frameDay, w.sendBuf, w.deadline())
}

// utilBytes is one utilization entry of a Day frame: site, queries,
// capacity and shed fraction as 8-byte words, then the withdrawn flag.
const utilBytes = 4*8 + 1

// appendDayFrame appends a Day frame's payload to buf: the shard's
// analysis frame (a bare header until the last day, which carries the
// shard's state) behind its length word, then the utilization section,
// which lists every front-end in a managed run and nothing otherwise.
func appendDayFrame(buf []byte, obs *experiments.ShardObserver, d sim.DayResult) []byte {
	// Size the payload once, then reserve the length word, encode the
	// frame in place and back-patch it — no second copy of the last day's
	// frame, which carries the shard's per-client state.
	buf = slices.Grow(buf, 8+obs.FrameLen(d.Day)+8+len(d.Utilization)*utilBytes)
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0, 0, 0, 0, 0)
	buf = obs.AppendDay(d, buf)
	binary.LittleEndian.PutUint64(buf[start:], uint64(len(buf)-start-8))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(d.Utilization)))
	for _, u := range d.Utilization {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(u.Site))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(u.Queries))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(u.Capacity))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(u.ShedFrac))
		if u.Withdrawn {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
	}
	return buf
}

// sendDone closes the protocol with this worker's statistics.
func (w *worker) sendDone() error {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		w.stats.PeakRSSBytes = ru.Maxrss * 1024 // Linux reports KiB
	}
	var b bytes.Buffer
	if err := gob.NewEncoder(&b).Encode(w.stats); err != nil {
		return fmt.Errorf("distsim: encoding stats: %w", err)
	}
	return w.fc.write(frameDone, b.Bytes(), w.deadline())
}
