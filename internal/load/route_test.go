package load

import (
	"testing"

	"anycastcdn/internal/topology"
)

// threeLayers builds a 3-ring stack over the 5-site test backbone:
// ring 0 all sites, ring 1 {new-york, chicago, los-angeles}, ring 2
// {los-angeles}.
func threeLayers(b *topology.Backbone) []Layer {
	all := b.FrontEnds()
	return []Layer{
		{Sites: all},
		{Sites: []topology.SiteID{all[0], all[2], all[4]}},
		{Sites: []topology.SiteID{all[4]}},
	}
}

// TestRouteFromExactTable pins the conditional-probability semantics of
// the layer walk with exact cases. This is the regression test for the
// u-rescaling bug class: u must be compared against f BEFORE rescaling,
// and rescaled only on the u < f branch (where f is provably positive),
// never divided by a zero or stale fraction.
func TestRouteFromExactTable(t *testing.T) {
	b := buildBackbone(t)
	bal, err := NewBalancer(b, threeLayers(b), defaultCapacity(b))
	if err != nil {
		t.Fatal(err)
	}
	fes := b.FrontEnds()
	ny, wdc, chi, la := fes[0], fes[1], fes[2], fes[4]
	// washington sheds half its ring-0 queries; its ring-1 target
	// (new-york, the nearest ring-1 member) sheds half of those onward to
	// the terminal ring.
	bal.shed[0][wdc] = 0.5
	bal.shed[1][ny] = 0.5

	cases := []struct {
		name string
		u    float64
		want topology.SiteID
	}{
		// u >= f at layer 0: served locally, no rescale happens.
		{"at-threshold stays", 0.5, wdc},
		{"above threshold stays", 0.999, wdc},
		// u < 0.5 rescales to u/0.5 at new-york; 0.49/0.5 = 0.98 >= 0.5
		// stays there. A broken walk that rescaled before comparing would
		// bounce this query to the terminal ring.
		{"just under threshold sheds one layer", 0.49, ny},
		{"u=0.3 rescales to 0.6, serves ring 1", 0.3, ny},
		// 0.2/0.5 = 0.4 < 0.5 again: sheds through both layers.
		{"u=0.2 walks to terminal ring", 0.2, la},
		{"u=0 walks to terminal ring", 0.0, la},
	}
	for _, tc := range cases {
		if got := bal.RouteFrom(wdc, wdc, tc.u, 0); got != tc.want {
			t.Errorf("%s: RouteFrom(wdc, wdc, %v) = %d, want %d", tc.name, tc.u, got, tc.want)
		}
	}

	// f = 0 must serve locally even at u = 0 — the branch that would
	// divide by zero if the rescale ran unconditionally.
	if got := bal.RouteFrom(chi, chi, 0.0, 0); got != chi {
		t.Errorf("u=0 at non-shedding site routed to %d, want local %d", got, chi)
	}
}

// TestRouteFromHeavyHitter pins the deterministic heavy-hitter branch: an
// atom larger than HeavyShare × capacity is redirected whenever the site
// sheds at all, regardless of u, and the branch consumes no probability
// mass.
func TestRouteFromHeavyHitter(t *testing.T) {
	b := buildBackbone(t)
	caps := defaultCapacity(b)
	fes := b.FrontEnds()
	ny, wdc := fes[0], fes[1]
	// New-york gets enough capacity that an atom heavy at washington
	// (threshold 12) is light there (threshold 100): the walk's second hop
	// is decided by u, not by the heavy rule.
	caps[ny] = 1000
	bal, err := NewBalancer(b, threeLayers(b), caps)
	if err != nil {
		t.Fatal(err)
	}
	heavy := bal.HeavyShare*caps[wdc] + 1

	// No shedding: even a heavy atom stays put.
	if got := bal.RouteFrom(wdc, wdc, 0.99, heavy); got != wdc {
		t.Fatalf("heavy atom moved off a non-shedding site: %d", got)
	}
	// Any shedding at all: the heavy atom goes deeper deterministically,
	// even with u = 0.999 (which would stay under the probabilistic rule).
	bal.shed[0][wdc] = 0.01
	if got := bal.RouteFrom(wdc, wdc, 0.999, heavy); got != ny {
		t.Fatalf("heavy atom at shedding site went to %d, want ring-1 member %d", got, ny)
	}
	// u is NOT consumed by the heavy branch: with ring 1 also shedding,
	// the ORIGINAL u decides at new-york, where the atom is light.
	// u = 0.4 < shed[1][ny] = 0.5 continues to the terminal ring; a walk
	// that had rescaled u at the heavy layer (0.4/0.01 = 40) would stay.
	bal.shed[1][ny] = 0.5
	la := fes[4]
	if got := bal.RouteFrom(wdc, wdc, 0.4, heavy); got != la {
		t.Fatalf("heavy atom's u was consumed at the heavy layer: got %d, want %d", got, la)
	}
	// ... while u = 0.6 >= 0.5 is served at new-york.
	if got := bal.RouteFrom(wdc, wdc, 0.6, heavy); got != ny {
		t.Fatalf("heavy atom with u above ring-1 threshold went to %d, want %d", got, ny)
	}
	// A light atom with the same u stays at washington: 0.4 >= 0.01, so
	// the probabilistic rule serves it locally.
	if got := bal.RouteFrom(wdc, wdc, 0.4, 1); got != wdc {
		t.Fatalf("light atom misrouted to %d", got)
	}
}

// TestWithdrawStepRolls pins the reactive naive strategy: each control
// interval withdraws the sites that the PREVIOUS interval's decision
// overloaded, so the failure rolls across the fleet instead of settling.
func TestWithdrawStepRolls(t *testing.T) {
	b := buildBackbone(t)
	fes := b.FrontEnds()
	caps := defaultCapacity(b) // 120 each
	wd := NewWithdrawer(b)
	step := func(demand []float64, withdrawn []bool) []bool {
		next := make([]bool, b.NumSites())
		wd.Step(demand, caps, withdrawn, next)
		return next
	}
	count := func(w []bool) (n int) {
		for _, v := range w {
			if v {
				n++
			}
		}
		return n
	}
	demand := make([]float64, b.NumSites())
	for _, s := range fes {
		demand[s] = 80
	}
	demand[fes[1]] = 150 // washington over capacity

	w0 := make([]bool, b.NumSites())
	w1 := step(demand, w0)
	if count(w1) != 1 || !w1[fes[1]] {
		t.Fatalf("first interval should withdraw exactly washington, got %v", w1)
	}
	// Washington's 150 re-homes to its nearest standing neighbour, which
	// now carries 230 > 120: the next interval withdraws it too.
	w2 := step(demand, w1)
	if count(w2) <= count(w1) {
		t.Fatalf("cascade did not roll: %v -> %v", w1, w2)
	}
	for fe, was := range w1 {
		if was && !w2[fe] {
			t.Fatalf("withdrawn set dropped %d while still cascading", fe)
		}
	}
	// Iterate to the bitter end: the set must never withdraw the last
	// standing front-end.
	w := w2
	for i := 0; i < len(fes)+2; i++ {
		w = step(demand, w)
		if count(w) >= len(fes) {
			t.Fatalf("every front-end withdrawn: %v", w)
		}
	}
	// A healthy fleet restores everything at once — the naive strategy
	// has no hysteresis.
	calm := make([]float64, b.NumSites())
	for _, s := range fes {
		calm[s] = 10
	}
	if got := step(calm, w); count(got) != 0 {
		t.Fatalf("healthy fleet should restore all routes, got %v", got)
	}
}

func TestDeriveRings(t *testing.T) {
	b := buildBackbone(t)
	fes := b.FrontEnds()
	caps := make([]float64, b.NumSites())
	var total float64
	for i, s := range fes {
		caps[s] = float64(100 + 10*i)
		total += caps[s]
	}
	mega := fes[4] // highest capacity
	layers := DeriveRings(b, caps)
	if len(layers) != 3 {
		t.Fatalf("want 3 rings, got %d", len(layers))
	}
	if len(layers[0].Sites) != len(fes) {
		t.Fatal("ring 0 must contain every front-end")
	}
	// All five sites are north-america, so ring 1 is the single best site
	// and ring 2 the same mega site.
	if len(layers[1].Sites) != 1 || layers[1].Sites[0] != mega {
		t.Fatalf("ring 1 = %v, want [%d]", layers[1].Sites, mega)
	}
	if len(layers[2].Sites) != 1 || layers[2].Sites[0] != mega {
		t.Fatalf("ring 2 = %v, want [%d]", layers[2].Sites, mega)
	}
	// The mega site's capacity is raised in place to megaShare × fleet.
	if caps[mega] != 2*total {
		t.Fatalf("mega capacity %v, want %v", caps[mega], 2*total)
	}
	// Non-ring sites keep their capacity.
	if caps[fes[0]] != 100 {
		t.Fatalf("ring-0 site capacity changed to %v", caps[fes[0]])
	}
}

func TestManagerConfigValidate(t *testing.T) {
	for _, p := range []Policy{Static, FastRoute, Withdraw} {
		if err := (ManagerConfig{Policy: p}).Validate(); err != nil {
			t.Errorf("%s config should validate: %v", p, err)
		}
	}
	for _, p := range []Policy{-1, Policy(99)} {
		if err := (ManagerConfig{Policy: p}).Validate(); err == nil {
			t.Errorf("unknown policy %d should fail validation", int(p))
		}
	}
}

func TestParsePolicyRoundTrip(t *testing.T) {
	for _, p := range []Policy{Static, FastRoute, Withdraw} {
		got, err := ParsePolicy(p.String())
		if err != nil || got != p {
			t.Errorf("ParsePolicy(%q) = %v, %v", p.String(), got, err)
		}
	}
	if _, err := ParsePolicy("bogus"); err == nil {
		t.Error("unknown policy should fail to parse")
	}
}
