package sim

import (
	"testing"

	"anycastcdn/internal/xrand"
)

// beaconCountReference is beaconCount as it was before it skipped the
// draw for a whole expectation: it always reseeds and draws.
func beaconCountReference(cfg Config, clientID uint64, day, queries int) int {
	expect := float64(queries) * cfg.BeaconSampleRate
	nb := int(expect)
	var rs xrand.Stream
	rs.Reseed(xrand.DeriveSeedL2(cfg.Seed, labelBeaconCount, clientID, uint64(day)))
	if rs.Float64() < expect-float64(nb) {
		nb++
	}
	if cfg.MaxBeaconsPerClientDay > 0 && nb > cfg.MaxBeaconsPerClientDay {
		nb = cfg.MaxBeaconsPerClientDay
	}
	return nb
}

func TestBeaconCountMatchesReference(t *testing.T) {
	for _, rate := range []float64{0, 0.1, 0.25, 1} {
		for _, capN := range []int{0, 7} {
			cfg := Config{Seed: 17, BeaconSampleRate: rate, MaxBeaconsPerClientDay: capN}
			for client := uint64(0); client < 40; client++ {
				for day := 0; day < 30; day++ {
					for q := 0; q <= 200; q++ {
						if got, want := beaconCount(cfg, client, day, q), beaconCountReference(cfg, client, day, q); got != want {
							t.Fatalf("rate %v cap %d client %d day %d queries %d: %d beacons, reference %d", rate, capN, client, day, q, got, want)
						}
					}
				}
			}
		}
	}
}
