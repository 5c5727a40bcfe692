package sim_test

import (
	"testing"

	"anycastcdn/internal/sim"
	"anycastcdn/internal/testutil"
)

// TestBuildWorldAllocsScaleWithResolvers pins the world build's client
// walk as allocation-free per client: quadrupling the population may add
// only what the larger population's extra resolvers cost (their names and
// catalog entries) and its extra blocks' worker-pool dispatch, not
// anything per client.
func TestBuildWorldAllocsScaleWithResolvers(t *testing.T) {
	measure := func(n int) float64 {
		cfg := testutil.TinyConfig(44)
		cfg.Prefixes = n
		return testing.AllocsPerRun(2, func() {
			if _, err := sim.BuildWorld(cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := measure(10_000), measure(40_000)
	if large-small >= 500 {
		t.Fatalf("BuildWorld allocates %.0f times at 10k prefixes and %.0f at 40k: +%.0f, want under +500", small, large, large-small)
	}
	t.Logf("BuildWorld allocs: %.0f at 10k prefixes, %.0f at 40k (+%.0f)", small, large, large-small)
}
