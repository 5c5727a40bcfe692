package experiments

import (
	"fmt"
	"time"

	"anycastcdn/internal/stats"
)

// TCPDisruption quantifies §2's claim that anycast route changes — which
// break in-flight TCP connections — "do not appear to be an issue in
// practice" for the short flows that dominate the Web. From the passive
// log's switch events it estimates, for a range of flow durations, the
// probability that a flow alive at a uniformly random moment of the study
// experiences a route change before completing.
//
// A switch event lands at a uniformly random instant of its day, so a flow
// of duration d overlaps it with probability min(1, d/86400) on a
// switch day. The per-duration disruption probability is the client-day
// average of that overlap.
func (s *Suite) TCPDisruption() Report { return s.stream().TCPDisruption() }

// TCPDisruption reports the §2 flow-breakage claim check from the
// per-client switch-day counts. Every client has one record a day, so
// each client's rate divides by the suite's day count.
func (s *StreamSuite) TCPDisruption() Report {
	durations := []time.Duration{
		time.Second, 10 * time.Second, time.Minute,
		10 * time.Minute, time.Hour, 12 * time.Hour, 24 * time.Hour,
	}
	const day = 24 * time.Hour

	tb := &stats.Table{
		Title:   "§2 claim check: probability a TCP flow is broken by an anycast route change",
		Columns: []string{"flow duration", "disruption probability", "flows broken per 10^6"},
	}
	probs := make([]float64, len(durations))
	for i, d := range durations {
		overlap := float64(d) / float64(day)
		if overlap > 1 {
			overlap = 1
		}
		if s.days == 0 || len(s.switchDays) == 0 {
			continue
		}
		// Ascending client order (the array index): float accumulation in
		// any other order would make the reported probabilities differ in
		// the last bits between runs.
		var sum float64
		for _, n := range s.switchDays {
			rate := float64(n) / float64(s.days)
			sum += rate * overlap
		}
		probs[i] = sum / float64(len(s.switchDays))
		tb.Rows = append(tb.Rows, []string{
			d.String(),
			fmt.Sprintf("%.6f", probs[i]),
			fmt.Sprintf("%.0f", probs[i]*1e6),
		})
	}
	lines := []Headline{
		{
			Name:     "short web flows essentially never broken",
			Paper:    "\"does not appear to be an issue in practice\" (§2)",
			Measured: fmt.Sprintf("P(break | 10s flow) = %.6f", probs[1]),
		},
		{
			Name:     "long-lived connections do pay",
			Paper:    "anycast TCP concerns focus on long flows [31]",
			Measured: fmt.Sprintf("P(break | 24h flow) = %.4f", probs[len(probs)-1]),
		},
	}
	return Report{ID: "tcp-disruption", Table: tb, Lines: lines}
}
