package experiments

import (
	"slices"

	"anycastcdn/internal/geo"
	"anycastcdn/internal/sim"
	"anycastcdn/internal/stats"
	"anycastcdn/internal/topology"
	"anycastcdn/internal/units"
)

// StreamSuite computes the passive-log experiments online over a streaming
// simulation: feed every sim.DayResult to Observe (or call Run) and read
// the reports after the stream ends. It retains only the state the six
// reports read, never a day of raw output, which makes it the analysis
// path for paper-scale runs (millions of client /24s over a month) whose
// full measurement set would not fit in memory. It is also the only
// passive-log analysis: the batch Suite replays its Result's days into a
// StreamSuite and delegates these reports to it.
//
// The state merges by construction: suites over adjacent client ranges
// concatenate their served rows and per-client arrays in range order and
// add their sketches (shard.go), so every report reads the same numbers,
// summed in the same order, however the clients were split.
//
// The beacon-driven figures (5, 6, 9) need cross-day latency samples per
// client and are not part of the streaming suite.
type StreamSuite struct {
	Cfg   sim.Config
	World *sim.World

	// lo and hi bound the client IDs the suite covers: every client for
	// NewStreamSuite, one worker's shard for a ShardObserver.
	lo, hi int
	geoDB  *geo.DB
	fePts  []geo.Point // front-end metros, for Figure 4's closest search

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
	fes := w.Deployment.FrontEnds
	pts := make([]geo.Point, len(fes))
	for i, fe := range fes {
		pts[i] = w.Deployment.Backbone.Site(fe.Site).Metro.Point
	}
	window := make([]int8, hi-lo)
	for i := range window {
		window[i] = unseen
	}
	// The layout is constant and valid, so the error path is unreachable.
	sk, _ := stats.NewLogQuantileSketch(fig8SketchLo, fig8SketchHi, fig8SketchBins)
	return &StreamSuite{
		Cfg:        cfg,
		World:      w,
		lo:         lo,
		hi:         hi,
		geoDB:      geo.NewDB(cfg.Seed, cfg.GeoMedianErrKm, cfg.GeoGrossRate, cfg.GeoGrossKm),
		fePts:      pts,
		switchDays: make([]int32, hi-lo),
		window:     window,
		sketch:     sk,
	}
}

// Observe consumes one streamed day. It has the sim.StreamWorld callback
// shape, so a suite can be fed directly:
//
//	ss := experiments.NewStreamSuite(cfg, w)
//	err := sim.StreamWorld(cfg, w, ss.Observe)
//
// It copies nothing out of the DayResult: every record lands in the
// state before the callback returns, respecting the stream's buffer-reuse
// contract.
func (s *StreamSuite) Observe(d sim.DayResult) error {
	bb := s.World.Deployment.Backbone
	if d.Day == 0 {
		s.served = slices.Grow(s.served, len(d.Passive))
	}
	for i, r := range d.Passive {
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
		if d.Day == 0 {
			cl := s.World.Population.Client(r.ClientID)
			fePt := bb.Site(r.FrontEnd).Metro.Point
			loc := s.geoDB.Locate(cl.ID, cl.Point)
			toFE := geo.DistanceKm(loc, fePt)
			_, closest := geo.NearestIndex(loc, s.fePts)
			s.served = append(s.served, servedRow{
				fe: r.FrontEnd, ingress: d.Assignments[i].Ingress, queries: r.Queries, volume: cl.Volume,
				dist: geo.DistanceKm(cl.Point, fePt), toFE: toFE, past: toFE - closest,
			})
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
			s.sketch.Add(geo.DistanceKm(bb.Site(r.PrevFrontEnd).Metro.Point, bb.Site(r.FrontEnd).Metro.Point))
		}
	}
	s.days++
	return nil
}

// Run streams the configured simulation over the world, feeding every day
// to the suite.
func (s *StreamSuite) Run() error {
	return sim.StreamWorld(s.Cfg, s.World, s.Observe)
}
