package xrand_test

import (
	"testing"

	"anycastcdn/internal/geo"
	"anycastcdn/internal/xrand"
)

// TestPickerMatchesWeightedChoiceOnMetroCatalog draws 10^5 metros the
// way the population generator does, from two streams with one seed:
// the picker over the catalog's fixed weights must return WeightedChoice's
// index every time.
func TestPickerMatchesWeightedChoiceOnMetroCatalog(t *testing.T) {
	metros := geo.World()
	weights := make([]float64, len(metros))
	for i, m := range metros {
		weights[i] = m.Weight
	}
	p, ok := xrand.NewPicker(weights)
	if !ok {
		t.Fatal("catalog weights rejected")
	}
	a, b := xrand.Substream(7, "clients-metro"), xrand.Substream(7, "clients-metro")
	for i := 0; i < 100_000; i++ {
		if got, want := p.Pick(a), b.WeightedChoice(weights); got != want {
			t.Fatalf("draw %d: picker %d, WeightedChoice %d", i, got, want)
		}
	}
}
