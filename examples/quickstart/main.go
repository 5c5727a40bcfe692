// Quickstart: simulate a week of an anycast CDN and ask the paper's
// headline question — how often does anycast beat the best nearby unicast
// front-end, and by how much?
package main

import (
	"fmt"
	"log"

	"anycastcdn"
)

func main() {
	// A small, fast configuration. Everything derives from the seed:
	// rerunning this program reproduces these exact numbers.
	cfg := anycastcdn.DefaultConfig(42)
	cfg.Prefixes = 2000
	cfg.Days = 7

	w, err := anycastcdn.BuildWorld(cfg)
	if err != nil {
		log.Fatal(err)
	}
	// One pass over the days: the suite folds each day for the figures,
	// and the loop counts the per-request anycast penalty straight from
	// the beacon measurements (the stream reuses each day's buffers).
	suite := anycastcdn.NewStreamSuite(cfg, w)
	var total, slower25, slower100 int
	err = anycastcdn.StreamWorld(cfg, w, func(d anycastcdn.DayResult) error {
		for _, m := range d.Beacons {
			total++
			p := m.AnycastPenaltyMs()
			if p >= 25 {
				slower25++
			}
			if p >= 100 {
				slower100++
			}
		}
		return suite.Observe(d)
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("simulated %d client /24s, %d beacon executions over %d days\n\n",
		cfg.Prefixes, total, cfg.Days)
	fmt.Printf("requests where anycast was >=25ms slower than best unicast:  %5.1f%%\n",
		100*float64(slower25)/float64(total))
	fmt.Printf("requests where anycast was >=100ms slower than best unicast: %5.1f%%\n\n",
		100*float64(slower100)/float64(total))

	// The full Figure 3 (CCDF by region), rendered as a table.
	fmt.Println(suite.Figure3().Render())
}
