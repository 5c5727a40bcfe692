package load

import (
	"math"
	"testing"

	"anycastcdn/internal/geo"
	"anycastcdn/internal/topology"
	"anycastcdn/internal/xrand"
)

// randomFleet builds a random front-end fleet over a random subset of the
// real metro catalog, with xrand-seeded capacities and an offered demand
// that is feasible by construction (total demand strictly below total
// ring-0 capacity). Everything is a pure function of seed.
func randomFleet(t *testing.T, seed uint64) (*topology.Backbone, []Layer, []float64, []float64) {
	t.Helper()
	var rs xrand.Stream
	rs.Reseed(seed)
	metros := geo.World()
	n := 4 + rs.Intn(len(metros)-4)
	specs := make([]topology.SiteSpec, 0, n)
	for _, idx := range rs.Perm(len(metros))[:n] {
		specs = append(specs, topology.SiteSpec{Metro: metros[idx].Name, FrontEnd: true, Peering: true})
	}
	bb, err := topology.Build(specs, 2+rs.Intn(3))
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	fes := bb.FrontEnds()
	caps := make([]float64, bb.NumSites())
	var total float64
	for _, fe := range fes {
		caps[fe] = 50 + 1000*rs.Float64()
		total += caps[fe]
	}
	// DeriveRings raises the deep rings in place (mega to 2 × fleet), so
	// the terminal ring can absorb any demand the fleet could nominally
	// carry — feasibility is by construction, matching how the simulation
	// provisions FastRoute.
	layers := DeriveRings(bb, caps)
	demand := make([]float64, bb.NumSites())
	// Spread a total strictly under the ring-0 fleet capacity across
	// random ingresses, deliberately lumpy so some sites start overloaded.
	budget := total * (0.3 + 0.6*rs.Float64())
	for budget > 0 {
		fe := fes[rs.Intn(len(fes))]
		amt := budget * rs.Float64()
		if amt > budget {
			amt = budget
		}
		demand[fe] += amt
		budget -= amt
		if budget < 1e-3 {
			break
		}
	}
	return bb, layers, caps, demand
}

func shedSnapshot(bal *Balancer) []uint64 {
	var snap []uint64
	for l := 0; l < bal.NumLayers(); l++ {
		for _, fe := range bal.layers[l].Sites {
			snap = append(snap, math.Float64bits(bal.shed[l][fe]))
		}
	}
	return snap
}

// TestConvergeNeverExceedsCapacity is the core property: on random
// topologies with feasible demand, the distributed controller converges
// to a state where no site in any ring runs past capacity.
func TestConvergeNeverExceedsCapacity(t *testing.T) {
	const eps = 1e-9
	for seed := uint64(1); seed <= 20; seed++ {
		bb, layers, caps, demand := randomFleet(t, seed)
		bal, err := NewBalancer(bb, layers, caps)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		maxUtil, steps := bal.Converge(demand, 2000)
		if steps >= 2000 {
			t.Errorf("seed %d: controller did not converge in 2000 steps (maxUtil %.4f)", seed, maxUtil)
			continue
		}
		if maxUtil > 1+eps {
			t.Errorf("seed %d: converged max utilization %.6f exceeds capacity", seed, maxUtil)
		}
		if got := bal.MaxUtilization(demand); math.Abs(got-maxUtil) > eps {
			t.Errorf("seed %d: Converge reported %.9f but MaxUtilization says %.9f", seed, maxUtil, got)
		}
	}
}

// TestShedFractionsStayBounded checks the invariant that every watermark
// step leaves every shed fraction a valid probability, even mid-flight on
// badly overloaded fleets.
func TestShedFractionsStayBounded(t *testing.T) {
	for seed := uint64(1); seed <= 10; seed++ {
		bb, layers, caps, demand := randomFleet(t, seed)
		bal, err := NewBalancer(bb, layers, caps)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		// Triple the demand so the controller spends many steps shedding
		// hard; fractions must stay in [0, 1] after every single step.
		for fe := range demand {
			demand[fe] *= 3
		}
		for step := 0; step < 60; step++ {
			bal.Adjust(demand)
			for l := 0; l < bal.NumLayers(); l++ {
				for _, fe := range bal.layers[l].Sites {
					f := bal.ShedFraction(l, fe)
					if f < 0 || f > 1 || math.IsNaN(f) {
						t.Fatalf("seed %d step %d: shed[%d][%d] = %v out of [0,1]", seed, step, l, fe, f)
					}
				}
			}
		}
		// The terminal ring never sheds — there is nowhere deeper to go.
		last := bal.NumLayers() - 1
		for _, fe := range bal.layers[last].Sites {
			if f := bal.ShedFraction(last, fe); f != 0 {
				t.Errorf("seed %d: terminal ring site %d sheds %v", seed, fe, f)
			}
		}
	}
}

// TestConvergeReplaysByteIdentically builds the same random fleet twice
// from the same seed and checks that the full controller state — every
// shed fraction, bit for bit — and the reported utilization match.
func TestConvergeReplaysByteIdentically(t *testing.T) {
	for seed := uint64(1); seed <= 10; seed++ {
		run := func() ([]uint64, uint64) {
			bb, layers, caps, demand := randomFleet(t, seed)
			bal, err := NewBalancer(bb, layers, caps)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			u, _ := bal.Converge(demand, 2000)
			return shedSnapshot(bal), math.Float64bits(u)
		}
		shedA, uA := run()
		shedB, uB := run()
		if uA != uB {
			t.Fatalf("seed %d: max utilization differs across reruns: %x vs %x", seed, uA, uB)
		}
		if len(shedA) != len(shedB) {
			t.Fatalf("seed %d: shed state shape differs across reruns", seed)
		}
		for i := range shedA {
			if shedA[i] != shedB[i] {
				t.Fatalf("seed %d: shed fraction %d differs bitwise across reruns", seed, i)
			}
		}
	}
}

// TestConvergedStateIsStable: once Converge reports a fixpoint (largest
// per-step movement below 1e-9), further Adjust calls must not move any
// fraction appreciably — the equilibrium is an attractor, not a point the
// controller shoots past.
func TestConvergedStateIsStable(t *testing.T) {
	for seed := uint64(1); seed <= 10; seed++ {
		bb, layers, caps, demand := randomFleet(t, seed)
		bal, err := NewBalancer(bb, layers, caps)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		_, steps := bal.Converge(demand, 2000)
		if steps >= 2000 {
			t.Fatalf("seed %d: no fixpoint in 2000 steps", seed)
		}
		before := shedSnapshot(bal)
		for i := 0; i < 10; i++ {
			bal.Adjust(demand)
		}
		after := shedSnapshot(bal)
		for i := range before {
			a, b := math.Float64frombits(before[i]), math.Float64frombits(after[i])
			if math.Abs(a-b) > 1e-6 {
				t.Fatalf("seed %d: fixpoint not stable, shed fraction %d moved %v -> %v", seed, i, a, b)
			}
		}
	}
}
