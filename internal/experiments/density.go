package experiments

import (
	"fmt"

	"anycastcdn/internal/cdn"
	"anycastcdn/internal/sim"
	"anycastcdn/internal/stats"
	"anycastcdn/internal/units"
)

// DeploymentDensity runs the extension §4 of the paper leaves as future
// work: "how to extend these performance results to CDNs with different
// numbers and locations of servers". It re-runs a short simulation at
// each deployment preset and reports the paper's key metrics — median
// client→front-end distance, fraction of clients at their closest
// front-end, and the ≥25 ms anycast penalty rate — as the deployment
// thins from Bing-like (64 sites) to CDNify-like (~20 sites).
//
// baseCfg supplies scale (prefixes, days are clamped for speed); each
// preset reuses its seed so rows differ only by deployment.
func DeploymentDensity(baseCfg sim.Config) (Report, error) {
	cfg := baseCfg
	if cfg.Days > 3 {
		cfg.Days = 3
	}
	if cfg.Prefixes > 3000 {
		cfg.Prefixes = 3000
	}
	tb := &stats.Table{
		Title: "§4 future work: anycast performance vs deployment density",
		Columns: []string{
			"deployment", "front-ends",
			"median km to anycast FE", "clients at closest FE",
			"requests >=25ms slower", "requests >=100ms slower",
		},
	}
	var rows []densityRow
	for _, preset := range []cdn.Preset{cdn.PresetDefault, cdn.PresetMedium, cdn.PresetSparse} {
		cfg.Deployment = preset
		w, err := sim.BuildWorld(cfg)
		if err != nil {
			return Report{}, fmt.Errorf("experiments: density preset %q: %w", preset, err)
		}
		suite := NewStreamSuite(cfg, w)
		if err := suite.Run(); err != nil {
			return Report{}, fmt.Errorf("experiments: density preset %q: %w", preset, err)
		}
		r := suite.densityRow()
		rows = append(rows, r)
		tb.Rows = append(tb.Rows, []string{
			string(preset),
			fmt.Sprintf("%d", w.Deployment.NumFrontEnds()),
			fmt.Sprintf("%.0f", r.medianKm),
			pct(r.atClosest),
			pct(r.p25),
			pct(r.p100),
		})
	}
	lines := []Headline{}
	if len(rows) == 3 {
		lines = append(lines, Headline{
			Name:     "sparser deployments push clients farther",
			Paper:    "open question in §4 (future work)",
			Measured: fmt.Sprintf("median km %d → %d → %d as sites thin", int(rows[0].medianKm), int(rows[1].medianKm), int(rows[2].medianKm)),
		})
	}
	return Report{ID: "deployment-density", Table: tb, Lines: lines}, nil
}

// densityRow is one deployment's key metrics.
type densityRow struct {
	medianKm             units.Kilometers
	atClosest, p25, p100 float64
}

// densityRow reads the suite's key metrics as Figures 3 and 4 compute
// them: the median client distance to the anycast front-end on Figure
// 4's grid (its first point with half the clients within it), the share
// of clients within 1 km of their closest front-end, and the shares of
// requests at least 25 and 100 ms slower over anycast.
func (s *StreamSuite) densityRow() densityRow {
	var r densityRow
	toFE := make([]units.Kilometers, len(s.served))
	closest := 0
	for i, row := range s.served {
		toFE[i] = row.toFE
		if row.past <= 1 {
			closest++
		}
	}
	if e, err := stats.NewECDF(toFE); err == nil {
		r.atClosest = float64(closest) / float64(len(toFE))
		grid := stats.LogGrid[units.Kilometers](64, 8192, 14)
		r.medianKm = grid[len(grid)-1]
		for _, x := range grid {
			if e.P(x) >= 0.5 {
				r.medianKm = x
				break
			}
		}
	}
	if e, err := stats.NewECDF(s.beacons.world); err == nil {
		r.p25, r.p100 = e.CCDF(25), e.CCDF(100)
	}
	return r
}
