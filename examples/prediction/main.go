// Prediction: run the paper's §6 history-based prediction scheme — train
// on one day of beacon measurements, evaluate on the next — and compare
// ECS-prefix grouping, LDNS grouping, and the hybrid policy.
package main

import (
	"fmt"
	"log"

	"anycastcdn"
)

func main() {
	cfg := anycastcdn.DefaultConfig(7)
	cfg.Prefixes = 3000
	cfg.Days = 4
	w, err := anycastcdn.BuildWorld(cfg)
	if err != nil {
		log.Fatal(err)
	}

	// Convert two consecutive days of beacons into predictor observations,
	// copies that outlive the day buffers the stream reuses.
	var train, next []anycastcdn.Observation
	err = anycastcdn.StreamWorld(cfg, w, func(d anycastcdn.DayResult) error {
		for _, m := range d.Beacons {
			switch d.Day {
			case 1:
				train = append(train, anycastcdn.ObservationsFromMeasurement(m)...)
			case 2:
				next = append(next, anycastcdn.ObservationsFromMeasurement(m)...)
			}
		}
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
	// Evaluation weights each /24 by its query volume.
	vols := make(map[uint64]float64, len(w.Population.Clients))
	for _, c := range w.Population.Clients {
		vols[c.ID] = c.Volume
	}

	configs := []struct {
		name string
		cfg  anycastcdn.PredictorConfig
		grp  anycastcdn.Grouping
	}{
		{"ECS /24, 25th-pct metric (paper)", anycastcdn.DefaultPredictorConfig(), anycastcdn.ByPrefix},
		{"LDNS, 25th-pct metric", anycastcdn.DefaultPredictorConfig(), anycastcdn.ByLDNS},
		{"ECS /24, median metric", anycastcdn.PredictorConfig{Metric: anycastcdn.MetricMedian, MinMeasurements: 20}, anycastcdn.ByPrefix},
		{"ECS /24, hybrid (10ms margin)", anycastcdn.PredictorConfig{Metric: anycastcdn.MetricP25, MinMeasurements: 20, HybridMarginMs: 10}, anycastcdn.ByPrefix},
	}

	fmt.Printf("%-36s %10s %10s %10s %10s\n",
		"scheme", "redirected", "improved", "worse", "net ms (w)")
	for _, c := range configs {
		pred := anycastcdn.NewPredictor(c.cfg).Train(train, c.grp)
		evals := anycastcdn.Evaluator{Percentile: 0.5, MinSamples: 2}.
			Evaluate(pred, next, vols)
		var wTotal, wImproved, wWorse, net float64
		for _, e := range evals {
			wTotal += e.Weight
			net += e.ImprovementMs.Float() * e.Weight
			switch {
			case e.ImprovementMs >= 1:
				wImproved += e.Weight
			case e.ImprovementMs <= -1:
				wWorse += e.Weight
			}
		}
		if wTotal == 0 {
			continue
		}
		fmt.Printf("%-36s %9.1f%% %9.1f%% %9.1f%% %10.2f\n",
			c.name,
			100*pred.RedirectedFraction(),
			100*wImproved/wTotal,
			100*wWorse/wTotal,
			net/wTotal)
	}
	fmt.Println("\nredirected: fraction of trained groups steered off anycast")
	fmt.Println("improved/worse: query-weighted /24s at least 1ms better/worse next day")
}
