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
	"os/exec"
	"sync"
	"syscall"
	"time"

	"anycastcdn/internal/experiments"
	"anycastcdn/internal/sim"
	"anycastcdn/internal/topology"
)

// Options configures a distributed run.
type Options struct {
	// Shards is the worker count; each worker owns one contiguous
	// client-prefix range. Clamped to the prefix count. Must be ≥ 1.
	Shards int
	// InProcess runs the workers as goroutines inside this process
	// instead of forked subprocesses. The full wire protocol still runs
	// over a socket pair — only the process boundary differs. Used by
	// tests and useful for debugging.
	InProcess bool
	// Argv is the worker command line; defaults to re-execing the
	// current binary with a single "-worker" argument.
	Argv []string
	// StallTimeout bounds every protocol step: how long the coordinator
	// waits for an expected frame and how long any frame write may
	// block. A worker that stays alive but sends nothing trips it.
	// Default 2m.
	StallTimeout time.Duration
}

// Result is a distributed run's merged output.
type Result struct {
	// Suite holds the merged passive-log analysis, byte-identical to a
	// single-process StreamSuite over the same configuration.
	Suite *experiments.StreamSuite
	// Utilization is the per-day fleet load picture (managed runs only):
	// Queries are summed across shards, control fields are the replicas'
	// shared values.
	Utilization [][]sim.SiteUtil
	// Workers holds each worker's closing statistics in shard order.
	Workers []WorkerStats
	// Records and Beacons are fleet totals.
	Records int64
	Beacons int64
}

// Run executes cfg split across opts.Shards workers and merges their
// day frames into a single analysis. The merge is deterministic:
// shard frames are folded in (day, shard) order, so the result is
// byte-identical to a single-process run — regardless of how the workers'
// execution interleaves.
func Run(ctx context.Context, cfg sim.Config, opts Options) (*Result, error) {
	if opts.Shards < 1 {
		return nil, fmt.Errorf("distsim: Shards must be ≥ 1, got %d", opts.Shards)
	}
	if opts.StallTimeout <= 0 {
		opts.StallTimeout = 2 * time.Minute
	}
	if len(opts.Argv) == 0 && !opts.InProcess {
		exe, err := os.Executable()
		if err != nil {
			return nil, fmt.Errorf("distsim: resolving worker binary: %w", err)
		}
		opts.Argv = []string{exe, "-worker"}
	}

	// The coordinator never holds a population: it merges encoded states
	// over an analysis world (deployment, topology, models — no clients).
	aw, err := sim.BuildAnalysisWorld(cfg)
	if err != nil {
		return nil, err
	}
	if opts.Shards > cfg.Prefixes {
		opts.Shards = cfg.Prefixes
	}

	c := &coordinator{cfg: cfg, opts: opts, world: aw}
	defer c.teardown()
	if err := c.start(ctx); err != nil {
		return nil, c.annotate(ctx, err)
	}
	res, err := c.run()
	if err != nil {
		return nil, c.annotate(ctx, err)
	}
	return res, nil
}

// coordinator owns the worker fleet for one Run.
type coordinator struct {
	cfg   sim.Config
	opts  Options
	world *sim.World

	conns  []*frameConn
	bounds [][2]int
	cmds   []*exec.Cmd

	// teardown state: done stops the ctx watcher; wg joins the watcher,
	// process reapers, and in-process workers.
	wg      sync.WaitGroup
	done    chan struct{}
	closers []net.Conn

	// demand is the reusable global-demand reduce state, one entry per
	// backbone site.
	demand  []float64
	sendBuf []byte
	// fes is the site order of every shard's utilization section: the
	// backbone's front-ends in a managed run, empty otherwise.
	fes []topology.SiteID
}

// annotate prefers the context's verdict when the run was canceled: the
// proximate error is then just a connection the ctx watcher closed.
func (c *coordinator) annotate(ctx context.Context, err error) error {
	if ctx.Err() != nil {
		return fmt.Errorf("distsim: run canceled: %w", ctx.Err())
	}
	return err
}

// socketPair returns a connected stream-socket pair as net.Conns plus
// the raw file for the worker end (kept open for ExtraFiles in the
// subprocess mode; closed by the caller after the fork).
func socketPair() (coord net.Conn, workerConn net.Conn, workerFile *os.File, err error) {
	fds, err := syscall.Socketpair(syscall.AF_UNIX, syscall.SOCK_STREAM, 0)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("distsim: socketpair: %w", err)
	}
	syscall.CloseOnExec(fds[0])
	syscall.CloseOnExec(fds[1])
	cf := os.NewFile(uintptr(fds[0]), "distsim-coordinator-end")
	wf := os.NewFile(uintptr(fds[1]), "distsim-worker-end")
	coord, err = net.FileConn(cf)
	_ = cf.Close() // FileConn dup'd the fd; the original is ours to drop
	if err != nil {
		_ = wf.Close()
		return nil, nil, nil, err
	}
	workerConn, err = net.FileConn(wf)
	if err != nil {
		_ = coord.Close()
		_ = wf.Close()
		return nil, nil, nil, err
	}
	return coord, workerConn, wf, nil
}

// start launches the fleet and completes the handshake: config out,
// Hello back, and for managed runs the capacity exchange.
func (c *coordinator) start(ctx context.Context) error {
	c.done = make(chan struct{})
	n := c.cfg.Prefixes
	for i := 0; i < c.opts.Shards; i++ {
		lo, hi := i*n/c.opts.Shards, (i+1)*n/c.opts.Shards
		c.bounds = append(c.bounds, [2]int{lo, hi})

		coordConn, workerConn, workerFile, err := socketPair()
		if err != nil {
			return err
		}
		c.closers = append(c.closers, coordConn)
		c.conns = append(c.conns, newFrameConn(coordConn))

		if c.opts.InProcess {
			_ = workerFile.Close() // in-process workers use workerConn directly
			c.wg.Add(1)
			go func() {
				defer c.wg.Done()
				// Serve reports protocol failures over the connection
				// itself; the coordinator's read side surfaces them.
				Serve(ctx, workerConn)
			}()
		} else {
			_ = workerConn.Close() // the subprocess owns the inherited copy
			cmd := exec.Command(c.opts.Argv[0], c.opts.Argv[1:]...)
			cmd.ExtraFiles = []*os.File{workerFile}
			cmd.Stdout = os.Stderr
			cmd.Stderr = os.Stderr
			if err := cmd.Start(); err != nil {
				_ = workerFile.Close()
				return fmt.Errorf("distsim: starting worker %d: %w", i, err)
			}
			_ = workerFile.Close() // the fork holds its own descriptor now
			c.cmds = append(c.cmds, cmd)
			c.wg.Add(1)
			go func() {
				defer c.wg.Done()
				// Reap the subprocess; its exit status is advisory — a
				// dead worker always surfaces as EOF on its connection.
				cmd.Wait()
			}()
		}
	}

	// The ctx watcher closes every connection on cancellation, failing the
	// in-flight and every later frame operation; a yanked deadline would
	// be overwritten by the next operation's own.
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		select {
		case <-ctx.Done():
			for _, conn := range c.closers {
				// Teardown closes the conns again; the second close
				// errors, which is fine.
				_ = conn.Close()
			}
		case <-c.done:
		}
	}()

	// Configs out.
	for i, fc := range c.conns {
		wc := wireConfig{
			Cfg:          c.cfg,
			Shard:        i,
			Lo:           c.bounds[i][0],
			Hi:           c.bounds[i][1],
			StallTimeout: c.opts.StallTimeout,
		}
		var b bytes.Buffer
		if err := gob.NewEncoder(&b).Encode(wc); err != nil {
			return fmt.Errorf("distsim: encoding config: %w", err)
		}
		if err := fc.write(frameConfig, b.Bytes(), c.deadline()); err != nil {
			return fmt.Errorf("distsim: worker %d: %w", i, err)
		}
	}
	// Hellos back — the world builds happen here, under one stall bound
	// each.
	for i, fc := range c.conns {
		if _, err := fc.expect(frameHello, c.deadline()); err != nil {
			return fmt.Errorf("distsim: worker %d: %w", i, err)
		}
	}
	if c.cfg.LoadManager != nil {
		return c.capsPhase()
	}
	return nil
}

// deadline is the stall bound on the next protocol step.
func (c *coordinator) deadline() time.Time { return time.Now().Add(c.opts.StallTimeout) }

// capsPhase reduces the load matrices the shards' schedule passes
// accumulate and broadcasts the derived per-site capacities, so every
// worker's policy replica starts from the same numbers the single-process
// run derives.
func (c *coordinator) capsPhase() error {
	matrix := make([]float64, c.cfg.Days*len(c.world.Deployment.Backbone.FrontEnds()))
	for i, fc := range c.conns {
		payload, err := fc.expect(frameCapsPart, c.deadline())
		if err != nil {
			return fmt.Errorf("distsim: worker %d load matrix: %w", i, err)
		}
		if err := decodeMatrix(matrix, payload); err != nil {
			return fmt.Errorf("distsim: worker %d load matrix: %w", i, err)
		}
	}
	caps, err := sim.CapsFromLoadMatrix(c.cfg, c.world, matrix)
	if err != nil {
		return err
	}
	c.sendBuf = appendMatrix(c.sendBuf[:0], caps)
	for i, fc := range c.conns {
		if err := fc.write(frameCaps, c.sendBuf, c.deadline()); err != nil {
			return fmt.Errorf("distsim: worker %d: %w", i, err)
		}
	}
	return nil
}

// run drives the day loop and closes the protocol. The merge is
// single-threaded and allocation-light: frame payloads are decoded in
// place from each connection's reusable read buffer.
func (c *coordinator) run() (*Result, error) {
	res := &Result{Suite: experiments.NewStreamSuite(c.cfg, c.world)}
	managed := c.cfg.LoadManager != nil
	if managed {
		c.demand = make([]float64, c.world.Deployment.Backbone.NumSites())
		c.fes = c.world.Deployment.Backbone.FrontEnds()
		res.Utilization = make([][]sim.SiteUtil, 0, c.cfg.Days)
	}

	for day := 0; day < c.cfg.Days; day++ {
		if managed {
			if err := c.demandBarrier(day); err != nil {
				return nil, err
			}
		}
		var dayUtil []sim.SiteUtil
		for i, fc := range c.conns {
			payload, err := fc.expect(frameDay, c.deadline())
			if err != nil {
				return nil, fmt.Errorf("distsim: worker %d day %d: %w", i, day, err)
			}
			dayUtil, err = c.mergeDay(res.Suite, day, i, payload, dayUtil)
			if err != nil {
				return nil, fmt.Errorf("distsim: worker %d day %d: %w", i, day, err)
			}
		}
		if managed {
			res.Utilization = append(res.Utilization, dayUtil)
		}
	}

	res.Workers = make([]WorkerStats, len(c.conns))
	for i, fc := range c.conns {
		payload, err := fc.expect(frameDone, c.deadline())
		if err != nil {
			return nil, fmt.Errorf("distsim: worker %d: %w", i, err)
		}
		if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&res.Workers[i]); err != nil {
			return nil, fmt.Errorf("distsim: worker %d stats: %w", i, err)
		}
		if err := res.Workers[i].check(i, c.bounds[i][0], c.bounds[i][1], c.cfg.Days); err != nil {
			return nil, fmt.Errorf("distsim: worker %d stats: %w", i, err)
		}
		res.Records += res.Workers[i].Records
		res.Beacons += res.Workers[i].Beacons
	}
	return res, nil
}

// demandBarrier runs one day's two-phase exchange: collect every shard's
// offered load, reduce (integer-valued sums — exact in any order), and
// broadcast the global vector back.
func (c *coordinator) demandBarrier(day int) error {
	clear(c.demand)
	for i, fc := range c.conns {
		payload, err := fc.expect(frameDemand, c.deadline())
		if err != nil {
			return fmt.Errorf("distsim: worker %d day %d demand: %w", i, day, err)
		}
		if err := decodeMatrix(c.demand, payload); err != nil {
			return fmt.Errorf("distsim: worker %d day %d demand: %w", i, day, err)
		}
	}
	c.sendBuf = appendMatrix(c.sendBuf[:0], c.demand)
	for i, fc := range c.conns {
		if err := fc.write(frameGlobal, c.sendBuf, c.deadline()); err != nil {
			return fmt.Errorf("distsim: worker %d day %d: %w", i, day, err)
		}
	}
	return nil
}

// mergeDay folds one worker's Day frame: the analysis frame into the
// suite, then the utilization section into the day's fleet picture. The
// section must list exactly c.fes, in order; the first shard's entries
// seed the day, and every later shard's add their queries and must agree
// on the replica-identical control fields.
func (c *coordinator) mergeDay(suite *experiments.StreamSuite, day, shard int, payload []byte, dayUtil []sim.SiteUtil) ([]sim.SiteUtil, error) {
	if len(payload) < 8 {
		return nil, fmt.Errorf("distsim: truncated day frame")
	}
	analysisLen := binary.LittleEndian.Uint64(payload)
	payload = payload[8:]
	if uint64(len(payload)) < analysisLen {
		return nil, fmt.Errorf("distsim: day frame shorter than its analysis frame")
	}
	lo, hi := c.bounds[shard][0], c.bounds[shard][1]
	if err := suite.MergeShardDay(day, lo, hi, payload[:analysisLen]); err != nil {
		return nil, err
	}
	util := payload[analysisLen:]
	if len(util) < 8 {
		return nil, fmt.Errorf("distsim: day frame missing utilization section")
	}
	n := binary.LittleEndian.Uint64(util)
	util = util[8:]
	if n != uint64(len(c.fes)) || len(util) != utilBytes*len(c.fes) {
		return nil, fmt.Errorf("distsim: utilization section lists %d sites in %d bytes, want %d", n, len(util), len(c.fes))
	}
	first := dayUtil == nil
	for i, fe := range c.fes {
		u := sim.SiteUtil{
			Site:      topology.SiteID(binary.LittleEndian.Uint64(util)),
			Queries:   math.Float64frombits(binary.LittleEndian.Uint64(util[8:])),
			Capacity:  math.Float64frombits(binary.LittleEndian.Uint64(util[16:])),
			ShedFrac:  math.Float64frombits(binary.LittleEndian.Uint64(util[24:])),
			Withdrawn: util[32] == 1,
		}
		util = util[utilBytes:]
		if u.Site != fe {
			return nil, fmt.Errorf("distsim: utilization entry %d is site %d, want front-end %d", i, u.Site, fe)
		}
		if first {
			dayUtil = append(dayUtil, u)
			continue
		}
		prev := &dayUtil[i]
		if prev.Capacity != u.Capacity || prev.ShedFrac != u.ShedFrac || prev.Withdrawn != u.Withdrawn {
			return nil, fmt.Errorf("distsim: replicas diverged on site %d control state", u.Site)
		}
		prev.Queries += u.Queries
	}
	return dayUtil, nil
}

// teardown stops the watcher, closes every connection, and kills any
// subprocess still running, then joins every goroutine start spawned.
// Safe on partial starts.
func (c *coordinator) teardown() {
	if c.done != nil {
		close(c.done)
	}
	for _, conn := range c.closers {
		_ = conn.Close() // teardown; the worker sees EOF either way
	}
	for _, cmd := range c.cmds {
		if cmd.Process != nil {
			cmd.Process.Kill()
		}
	}
	c.wg.Wait()
}
