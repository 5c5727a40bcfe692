package experiments

import "anycastcdn/internal/sim"

// StreamSuite computes the passive-log experiments online over a streaming
// simulation: feed every sim.DayResult to Observe (or call Run) and read
// the reports after the stream ends. It retains only the aggregators'
// state, never a day of raw output, which makes it the analysis path for
// paper-scale runs (millions of client /24s over a month) whose full
// measurement set would not fit in memory. It is also the only
// passive-log analysis: the batch Suite replays its Result's days into a
// StreamSuite and delegates these reports to it.
//
// The beacon-driven figures (5, 6, 9) need cross-day latency samples per
// client and are not part of the streaming suite.
type StreamSuite struct {
	Cfg   sim.Config
	World *sim.World

	fig4 *figure4Agg
	cat  *catchmentAgg
	tcp  *tcpAgg
	shed *loadShedAgg
	fig7 *switchAgg
	fig8 *fig8Agg
}

// NewStreamSuite prepares aggregators for a streaming run over w. The
// dense per-client aggregators size themselves from cfg.Prefixes, not the
// world's population, so a merge-only suite can run over a population-free
// sim.BuildAnalysisWorld — the distributed coordinator's configuration.
func NewStreamSuite(cfg sim.Config, w *sim.World) *StreamSuite {
	return &StreamSuite{
		Cfg:   cfg,
		World: w,
		fig4:  newFigure4Agg(cfg, w),
		cat:   newCatchmentAgg(w),
		tcp:   newTCPAgg(cfg.Prefixes),
		shed:  newLoadShedAgg(),
		fig7:  newSwitchAgg(figure7Week, cfg.Prefixes),
		fig8:  newFig8Agg(w.Deployment.Backbone),
	}
}

// Observe consumes one streamed day. It has the sim.StreamWorld callback
// shape, so a suite can be fed directly:
//
//	ss := experiments.NewStreamSuite(cfg, w)
//	err := sim.StreamWorld(cfg, w, ss.Observe)
//
// It copies nothing out of the DayResult: every record lands in the
// aggregators before the callback returns, respecting the stream's
// buffer-reuse contract.
func (s *StreamSuite) Observe(d sim.DayResult) error {
	for i, r := range d.Passive {
		s.fig4.observe(r)
		s.cat.observe(r)
		s.tcp.observe(r)
		s.fig7.observe(r)
		s.fig8.observe(r)
		if d.Day == 0 {
			s.shed.observe(r, d.Assignments[i].Ingress)
		}
	}
	return nil
}

// Run streams the configured simulation over the world, feeding every day
// to the suite.
func (s *StreamSuite) Run() error {
	return sim.StreamWorld(s.Cfg, s.World, s.Observe)
}

// Figure4 reports the client-to-front-end distance analysis (§5).
func (s *StreamSuite) Figure4() Report { return s.fig4.report() }

// Catchments reports the per-front-end catchment table.
func (s *StreamSuite) Catchments(topN int) Report { return s.cat.report(topN) }

// TCPDisruption reports the §2 flow-breakage claim check.
func (s *StreamSuite) TCPDisruption() Report { return s.tcp.report() }

// LoadShedding reports the FastRoute-style flash-crowd experiment.
func (s *StreamSuite) LoadShedding(crowdFactor float64) Report {
	return s.shed.report(s.World, crowdFactor)
}

// Figure7 reports the front-end affinity analysis (§5).
func (s *StreamSuite) Figure7() Report { return s.fig7.report(s.World.Router.Weekday) }

// Figure8 reports the switch-distance analysis (§5).
func (s *StreamSuite) Figure8() Report { return s.fig8.report() }
