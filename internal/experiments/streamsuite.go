package experiments

import (
	"runtime"
	"slices"
	"sync"

	"anycastcdn/internal/core"
	"anycastcdn/internal/geo"
	"anycastcdn/internal/sim"
	"anycastcdn/internal/stats"
	"anycastcdn/internal/topology"
	"anycastcdn/internal/units"
)

// StreamSuite computes every experiment online over a streaming
// simulation: feed every sim.DayResult to Observe (or call Run) and read
// the reports after the stream ends. It retains only the state the
// reports read, never a day of raw output, which makes it the analysis
// path for paper-scale runs (millions of client /24s over a month) whose
// full measurement set would not fit in memory. A Suite is a StreamSuite
// fed from a materialized Result.
//
// The passive-log state merges by construction: suites over adjacent
// client ranges concatenate their served rows and per-client arrays in
// range order and add their sketches (shard.go), so every passive-log
// report reads the same numbers, summed in the same order, however the
// clients were split. The beacon state (beacons.go) stays in-process:
// Figure 9's LDNS groups span client ranges.
type StreamSuite struct {
	Cfg   sim.Config
	World *sim.World

	// lo and hi bound the client IDs the suite covers: every client for
	// NewStreamSuite, one worker's shard for a ShardObserver.
	lo, hi int
	geoDB  *geo.DB

	// days counts the observed days. Every client has one passive record
	// a day, so it is also every client's day count.
	days int
	// served holds day 0's records with traffic, in client order.
	served []servedRow
	// switchDays[i] counts client lo+i's days with a front-end change.
	switchDays []int32
	// window[i] is client lo+i's state in Figure 7's week: unseen, seen,
	// or the day of its first visible front-end change.
	window []int8
	// sketch holds Figure 8's switch distances.
	sketch *stats.QuantileSketch[units.Kilometers]
	// siteKm[a*NumSites+b] is the air distance between sites a and b,
	// the DistanceKm Figure 8 would otherwise compute per front-end
	// change.
	siteKm []units.Kilometers
	// beacons is the beacon fold's state (beacons.go).
	beacons beaconState
}

// Figure 7 window states other than a first-change day (0 to 6).
const (
	unseen int8 = -2 // no traffic yet in the window
	seen   int8 = -1 // traffic, but no visible front-end change yet
)

// servedRow is one day-0 record with traffic, resolved against the
// population as it is observed: a distributed run's coordinator holds no
// population to resolve it later.
type servedRow struct {
	fe, ingress topology.SiteID
	queries     int
	volume      float64
	// dist is the client's distance to its front-end (catchments). toFE
	// and past are the geolocated client's distance to it and past the
	// closest front-end (Figure 4): client positions come from the
	// geolocation database, as in the paper's pipeline, whose footnote
	// notes that a fraction of very long distances may be geolocation
	// error — the same is true here.
	dist, toFE, past units.Kilometers
}

// NewStreamSuite prepares a streaming run over w. The per-client state
// sizes itself from cfg.Prefixes, not the world's population, so a
// merge-only suite can run over a population-free sim.BuildAnalysisWorld
// — the distributed coordinator's configuration.
func NewStreamSuite(cfg sim.Config, w *sim.World) *StreamSuite {
	return newStreamSuite(cfg, w, 0, cfg.Prefixes)
}

func newStreamSuite(cfg sim.Config, w *sim.World, lo, hi int) *StreamSuite {
	window := make([]int8, hi-lo)
	for i := range window {
		window[i] = unseen
	}
	// The layout is constant and valid, so the error path is unreachable.
	sk, _ := stats.NewLogQuantileSketch(fig8SketchLo, fig8SketchHi, fig8SketchBins)
	bb := w.Deployment.Backbone
	sites := bb.NumSites()
	siteKm := make([]units.Kilometers, sites*sites)
	for a := range sites {
		for b := range sites {
			siteKm[a*sites+b] = geo.DistanceKm(bb.Site(topology.SiteID(a)).Metro.Point, bb.Site(topology.SiteID(b)).Metro.Point)
		}
	}
	return &StreamSuite{
		Cfg:        cfg,
		World:      w,
		lo:         lo,
		hi:         hi,
		geoDB:      geo.NewDB(cfg.Seed, geo.MedianErrorKm, geo.GrossErrorRate, geo.GrossErrorKm),
		switchDays: make([]int32, hi-lo),
		window:     window,
		sketch:     sk,
		siteKm:     siteKm,
		beacons:    beaconState{pred: newPredictionFold(core.DefaultConfig(), true)},
	}
}

// Observe consumes one streamed day. It has the sim.StreamWorld callback
// shape, so a suite can be fed directly:
//
//	ss := experiments.NewStreamSuite(cfg, w)
//	err := sim.StreamWorld(cfg, w, ss.Observe)
//
// It copies nothing out of the DayResult: every record and beacon lands
// in the state before the callback returns, respecting the stream's
// buffer-reuse contract.
func (s *StreamSuite) Observe(d sim.DayResult) error {
	s.observePassive(d)
	s.observeBeacons(d.Day, d.Beacons)
	return nil
}

// observePassive folds one day's passive log into the suite.
func (s *StreamSuite) observePassive(d sim.DayResult) {
	if d.Day == 0 {
		s.observeServed(d)
	}
	sites := s.World.Deployment.Backbone.NumSites()
	for _, r := range d.Passive {
		c := r.ClientID - uint64(s.lo)
		changed := r.FrontEndChanged()
		if changed {
			s.switchDays[c]++
		}
		// The observability rule: a day without queries has no row in a
		// real passive log, so everything below — a front-end change on
		// that day included — is blind to it. Only the TCP-disruption
		// counts above see every record.
		if r.Queries == 0 {
			continue
		}
		if d.Day < figure7Week {
			if s.window[c] == unseen {
				s.window[c] = seen
			}
			if changed && s.window[c] == seen {
				s.window[c] = int8(d.Day)
			}
		}
		if changed {
			s.sketch.Add(s.siteKm[int(r.PrevFrontEnd)*sites+int(r.FrontEnd)])
		}
	}
	s.days++
}

// observeServed appends day 0's records with traffic to s.served as
// resolved rows, in client order. A row costs a geolocation draw, two
// haversines and a nearest-front-end search over state that is read-only
// during the run, so the records split into Cfg.Workers ranges, each
// range's rows are counted, and each range resolves its rows into their
// serial positions in parallel.
func (s *StreamSuite) observeServed(d sim.DayResult) {
	recs := d.Passive
	bounds := s.ranges(len(recs))
	// Range k fills served rows [at[k], at[k+1]).
	at := make([]int, len(bounds))
	at[0] = len(s.served)
	for k := range len(bounds) - 1 {
		n := 0
		for _, r := range recs[bounds[k]:bounds[k+1]] {
			if r.Queries > 0 {
				n++
			}
		}
		at[k+1] = at[k] + n
	}
	end := at[len(at)-1]
	s.served = slices.Grow(s.served, end-at[0])[:end]
	eachRange(bounds, func(k, lo, hi int) { s.resolveServed(d, lo, hi, s.served[at[k]:at[k+1]]) })
}

// ranges splits n items into Cfg.Workers contiguous ranges (0 means
// GOMAXPROCS, and there are never more ranges than items, nor fewer than
// one): range k covers items [bounds[k], bounds[k+1]).
func (s *StreamSuite) ranges(n int) (bounds []int) {
	workers := s.Cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = max(1, min(workers, n))
	bounds = make([]int, workers+1)
	for k := range bounds {
		bounds[k] = k * n / workers
	}
	return bounds
}

// eachRange calls fn(k, lo, hi) for every range k of bounds, covering
// [lo, hi): the first range inline and each other on a goroutine of its
// own, all joined before it returns. A single range starts nothing.
func eachRange(bounds []int, fn func(k, lo, hi int)) {
	var wg sync.WaitGroup
	for k := 1; k < len(bounds)-1; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(k, bounds[k], bounds[k+1])
		}()
	}
	fn(0, bounds[0], bounds[1])
	wg.Wait()
}

// resolveServed writes the served rows of day 0's records [lo, hi) with
// traffic into dst, which holds exactly that many rows.
func (s *StreamSuite) resolveServed(d sim.DayResult, lo, hi int, dst []servedRow) {
	bb := s.World.Deployment.Backbone
	j := 0
	for i := lo; i < hi; i++ {
		r := &d.Passive[i]
		if r.Queries == 0 {
			continue
		}
		cl := s.World.Population.Client(r.ClientID)
		fePt := bb.Site(r.FrontEnd).Metro.Point
		loc := s.geoDB.Locate(cl.ID, cl.Point)
		toFE := geo.DistanceKm(loc, fePt)
		_, closest := bb.FrontEndSet().Nearest(loc)
		dst[j] = servedRow{
			fe: r.FrontEnd, ingress: d.Assignments[i].Ingress, queries: r.Queries, volume: cl.Volume,
			dist: geo.DistanceKm(cl.Point, fePt), toFE: toFE, past: toFE - closest,
		}
		j++
	}
}

// Run streams the configured simulation over the world, feeding every day
// to the suite.
func (s *StreamSuite) Run() error {
	return sim.StreamWorld(s.Cfg, s.World, s.Observe)
}
