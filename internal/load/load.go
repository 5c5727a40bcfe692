// Package load implements a FastRoute-style load-aware anycast layer
// (Flavel et al., NSDI 2015 — reference [23] of the paper, the system the
// measured CDN actually runs; extended by Sinha/Mani/Flavel's distributed
// load-management papers).
//
// §2 of the paper describes the problem: anycast is unaware of server
// load; withdrawing an overloaded front-end's route moves ALL of its
// traffic to the next-best front-end at once, which "can lead to cascading
// overloading of nearby front-ends". FastRoute's answer is layered
// anycast: front-ends participate in a stack of anycast rings, and an
// overloaded front-end sheds a *fraction* of its DNS queries to the next
// layer's anycast address (whose ring contains fewer, larger sites), so
// load drains gradually instead of in cliffs.
//
// The controller here is distributed in the papers' sense: each front-end
// adjusts its own shed fraction from only its own observed load and
// capacity — a high watermark above which it sheds more, a low watermark
// below which it reclaims, and a dead band between them that gives the
// loop hysteresis. No site ever reads another site's load, and there is
// no central coordinator; global balance is an emergent fixpoint of the
// local rules.
//
// This package provides the layered balancer, the local watermark
// controller, and the explicit naive route-withdrawal strategy that
// reproduces the cascading failure the paper warns about.
//
// Every per-site quantity — capacity, demand, load, shed fraction,
// withdrawal — is a dense vector indexed by topology.SiteID,
// Backbone.NumSites() long. A site that is not a front-end, or that no
// demand enters at, holds zero. Sums over sites run in ascending index
// order, so they are bit-stable without sorting anything.
package load

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"

	"anycastcdn/internal/topology"
	"anycastcdn/internal/units"
)

// Layer is one anycast ring: the set of sites announcing that ring's VIP.
type Layer struct {
	Sites []topology.SiteID
}

// Balancer is a layered-anycast load balancer.
type Balancer struct {
	backbone *topology.Backbone
	layers   []Layer
	capacity []float64
	// shed[l][site] is the fraction of layer-l queries at site currently
	// redirected to layer l+1.
	shed [][]float64
	// HighWatermark is the utilization above which a site sheds more.
	HighWatermark float64
	// LowWatermark is the utilization below which a site reclaims shed
	// traffic. The dead band between the watermarks is the hysteresis
	// that keeps shed fractions from oscillating: a site whose
	// utilization sits between them leaves its fraction exactly alone.
	LowWatermark float64
	// Gain is the controller step size per adjustment.
	Gain float64
	// MaxStep caps how far a shed fraction may move in one adjustment,
	// damping the overshoot that would otherwise bounce a site between
	// the watermarks.
	MaxStep float64
	// HeavyShare is the heavy-hitter threshold: a demand atom (one
	// client-day's queries) larger than HeavyShare × a ring member's
	// capacity is redirected deterministically whenever that member is
	// shedding at all. FastRoute manages very large resolvers explicitly
	// for the same reason: probabilistic shedding cannot control an atom
	// comparable to a site's whole capacity — whichever way its coin
	// lands moves the site by more than the watermark band.
	HeavyShare float64

	// loads and the two flow buffers are Offered's, reused by every call.
	loads       [][]float64
	flows, next []flow
}

// flow is demand entering at ingress on its way down the layer stack;
// exclude is the site that shed it from the layer above.
type flow struct {
	ingress topology.SiteID
	qty     float64
	exclude topology.SiteID
}

// NewBalancer builds a balancer over the given layers. Layer 0 must
// contain every front-end that serves by default; deeper layers typically
// keep only high-capacity sites. capacity holds each site's queries per
// interval. NewBalancer sets the controller fields to the values every
// managed run uses.
func NewBalancer(b *topology.Backbone, layers []Layer, capacity []float64) (*Balancer, error) {
	if len(layers) == 0 {
		return nil, fmt.Errorf("load: no layers")
	}
	if len(capacity) != b.NumSites() {
		return nil, fmt.Errorf("load: %d capacities for %d sites", len(capacity), b.NumSites())
	}
	for li, l := range layers {
		if len(l.Sites) == 0 {
			return nil, fmt.Errorf("load: layer %d empty", li)
		}
		for _, s := range l.Sites {
			if !b.Site(s).FrontEnd {
				return nil, fmt.Errorf("load: site %d in layer %d is not a front-end", s, li)
			}
			if capacity[s] <= 0 {
				return nil, fmt.Errorf("load: site %d has no capacity", s)
			}
		}
	}
	bal := &Balancer{
		backbone:      b,
		layers:        layers,
		capacity:      capacity,
		HighWatermark: HighWatermark,
		LowWatermark:  lowWatermark,
		Gain:          gain,
		MaxStep:       maxStep,
		HeavyShare:    heavyShare,
		shed:          make([][]float64, len(layers)),
		loads:         make([][]float64, len(layers)),
	}
	for i := range bal.shed {
		bal.shed[i] = make([]float64, b.NumSites())
		bal.loads[i] = make([]float64, b.NumSites())
	}
	return bal, nil
}

// NumLayers returns the number of anycast rings.
func (bal *Balancer) NumLayers() int { return len(bal.layers) }

// ShedFraction returns the current shed fraction of a site at a layer.
func (bal *Balancer) ShedFraction(layer int, site topology.SiteID) float64 {
	if layer < 0 || layer >= len(bal.shed) {
		return 0
	}
	return bal.shed[layer][site]
}

// frontEndAtLayer returns the layer-l anycast front-end for traffic
// entering the CDN at ingress: the ring member nearest by IGP metric
// (hot-potato within the ring). exclude skips one site — a site shedding
// its own load withdraws itself from the next ring's announcement for
// that traffic, as FastRoute does, so shed load actually moves.
func (bal *Balancer) frontEndAtLayer(ingress topology.SiteID, layer int, exclude topology.SiteID) topology.SiteID {
	best := topology.InvalidSite
	bestD := units.Kilometers(math.Inf(1))
	for _, s := range bal.layers[layer].Sites {
		if s == exclude && len(bal.layers[layer].Sites) > 1 {
			continue
		}
		if d := bal.backbone.IGPDistanceKm(ingress, s); d < bestD {
			best, bestD = s, d
		}
	}
	return best
}

// Route resolves where a query entering at ingress is served, walking the
// layer stack: at each layer the nearest ring member either serves the
// query or (with its shed probability) forwards the client to the next
// layer's VIP. u in [0,1) supplies the randomness deterministically.
func (bal *Balancer) Route(ingress topology.SiteID, u float64) topology.SiteID {
	return bal.RouteFrom(ingress, bal.frontEndAtLayer(ingress, 0, topology.InvalidSite), u, 0)
}

// RouteFrom walks the layer stack starting from an already-resolved
// layer-0 front-end (the client's effective anycast assignment, which
// fault rewrites may have moved off the nearest ring member). ingress
// still decides which deeper-ring member anycast would deliver the
// re-queried client to. load is the size of the demand atom being
// routed (one client-day's queries); pass 0 to disable the heavy-hitter
// rule.
//
// The walk keeps the conditional-probability semantics exact: u continues
// past a layer only when u < f, so the rescale u/f that turns the
// remaining mass back into a uniform divides by a provably positive f —
// never by a stale fraction from a previous layer. The deterministic
// heavy-hitter branch consumes no probability mass, so it leaves u
// untouched for the next layer's decision.
func (bal *Balancer) RouteFrom(ingress, fe topology.SiteID, u float64, load float64) topology.SiteID {
	for layer := 0; layer < len(bal.layers)-1; layer++ {
		f := bal.shed[layer][fe]
		if f > 0 && load > bal.HeavyShare*bal.capacity[fe] {
			fe = bal.frontEndAtLayer(ingress, layer+1, fe)
			continue
		}
		if u >= f {
			return fe
		}
		// u < f here, so f > 0: rescale the remaining mass for the next
		// layer so a single uniform drives the whole walk.
		u /= f
		fe = bal.frontEndAtLayer(ingress, layer+1, fe)
	}
	return fe // last layer always serves
}

// Offered computes per-site offered load at each layer given per-ingress
// demand (queries entering the CDN at each ingress site) under the
// current shed fractions. It is the analytic expectation of Route over
// the demand: probability mass flows down the layer stack exactly where
// RouteFrom's walk would send it. The returned vectors are the
// balancer's own, valid until the next call.
func (bal *Balancer) Offered(demand []float64) [][]float64 {
	for _, l := range bal.loads {
		clear(l)
	}
	// Demand flows down the layer stack analytically. An ingress without
	// demand adds nothing at any layer, so it starts no flow.
	flows, next := bal.flows[:0], bal.next[:0]
	for ing, q := range demand {
		if q != 0 {
			flows = append(flows, flow{topology.SiteID(ing), q, topology.InvalidSite})
		}
	}
	for layer := 0; layer < len(bal.layers); layer++ {
		next = next[:0]
		for _, f := range flows {
			fe := bal.frontEndAtLayer(f.ingress, layer, f.exclude)
			shed := 0.0
			if layer < len(bal.layers)-1 {
				shed = bal.shed[layer][fe]
			}
			bal.loads[layer][fe] += f.qty * (1 - shed)
			if shed > 0 {
				next = append(next, flow{f.ingress, f.qty * shed, fe})
			}
		}
		flows, next = next, flows
	}
	bal.flows, bal.next = flows, next
	return bal.loads
}

// SiteLoad sums a site's load across layers.
func SiteLoad(loads [][]float64, site topology.SiteID) float64 {
	var total float64
	for _, l := range loads {
		total += l[site]
	}
	return total
}

// StepLocal runs one distributed control round over observed per-layer
// loads: every non-terminal ring member looks at only its own total load
// and capacity and moves its own shed fraction — up when above the high
// watermark, down when below the low watermark, not at all inside the
// dead band. Each move is capped at MaxStep. It returns the largest
// fraction change of the round, so callers can detect the fixpoint.
func (bal *Balancer) StepLocal(loads [][]float64) float64 {
	maxDelta := 0.0
	for layer := 0; layer < len(bal.layers)-1; layer++ {
		for _, site := range bal.layers[layer].Sites {
			// Shedding to a next ring that contains only this site moves
			// nothing; leave the fraction at zero rather than chase load
			// that cannot go anywhere.
			if next := bal.layers[layer+1].Sites; len(next) == 1 && next[0] == site {
				continue
			}
			util := SiteLoad(loads, site) / bal.capacity[site]
			f := bal.shed[layer][site]
			step := 0.0
			switch {
			case util > bal.HighWatermark:
				// Move the serve fraction (1-f) toward the value that would
				// put this site at the top of the dead band. The target is
				// multiplicative in the serve fraction, which keeps the
				// effective loop gain bounded no matter how badly the site
				// is overloaded — an additive step in utilization space has
				// gain proportional to demand/capacity and turns into a
				// divergent limit cycle once that ratio passes 2/Gain.
				target := 1 - (1-f)*bal.HighWatermark/util
				step = bal.Gain * (target - f)
			case util < bal.LowWatermark && f > 0:
				// Reclaim at half gain: asymmetric speeds damp the
				// overshoot cycle shed-too-much → starve → reclaim →
				// overload again.
				if util > 0 && f < 1 {
					target := 1 - (1-f)*bal.LowWatermark/util
					step = bal.Gain * (target - f) * 0.5
				} else {
					// A fully shed or idle site serves nothing, so the
					// multiplicative rule has no load signal; probe routes
					// back additively instead.
					step = -bal.Gain * (bal.LowWatermark - util) * 0.5
				}
			}
			if step > bal.MaxStep {
				step = bal.MaxStep
			}
			if step < -bal.MaxStep {
				step = -bal.MaxStep
			}
			f += step
			if f < 0 {
				f = 0
			}
			if f > 1 {
				f = 1
			}
			if d := math.Abs(f - bal.shed[layer][site]); d > maxDelta {
				maxDelta = d
			}
			bal.shed[layer][site] = f
		}
	}
	return maxDelta
}

// MaxUtilization evaluates the current shed state against per-ingress
// demand and returns the worst site utilization across all layers.
func (bal *Balancer) MaxUtilization(demand []float64) float64 {
	loads := bal.Offered(demand)
	maxUtil := 0.0
	for _, l := range bal.layers {
		for _, site := range l.Sites {
			if u := SiteLoad(loads, site) / bal.capacity[site]; u > maxUtil {
				maxUtil = u
			}
		}
	}
	return maxUtil
}

// Adjust runs one control step — every site's local watermark rule over
// the offered load — and returns the maximum utilization after the
// step's load re-evaluation.
func (bal *Balancer) Adjust(demand []float64) float64 {
	delta, u := bal.adjust(demand)
	_ = delta
	return u
}

func (bal *Balancer) adjust(demand []float64) (delta, maxUtil float64) {
	loads := bal.Offered(demand)
	delta = bal.StepLocal(loads)
	return delta, bal.MaxUtilization(demand)
}

// Converge runs Adjust until the shed fractions reach a fixpoint (no
// fraction moved) or the iteration budget is exhausted, returning the
// final max utilization and the number of steps taken. The watermark
// dead band guarantees the fixpoint is stable: once every site sits
// between its watermarks (or is pinned at 0 or 1), further steps change
// nothing.
func (bal *Balancer) Converge(demand []float64, maxSteps int) (float64, int) {
	u := bal.MaxUtilization(demand)
	for step := 1; step <= maxSteps; step++ {
		var delta float64
		delta, u = bal.adjust(demand)
		if delta < 1e-9 {
			return u, step
		}
	}
	return u, maxSteps
}

// DeriveRings builds the default FastRoute layer stack over per-site
// capacities and raises the deeper rings to data-center scale in place:
//
//	ring 0 — every front-end (plain anycast);
//	ring 1 — the highest-capacity front-end of each region, each raised
//	         to deepRingShare × (fleet capacity) / |ring 1|;
//	ring 2 — the single highest-capacity site, raised to
//	         megaShare × (fleet capacity).
//
// Fleet capacity is summed before the boosts. FastRoute's deeper rings
// are backed by large data centers; the boosts model that a ring-1 VIP
// lands in a regional DC and the terminal ring in a mega-DC that can
// absorb any plausible flash crowd. Candidates are scanned in deployment
// order, so capacity ties resolve identically on every run.
func DeriveRings(bb *topology.Backbone, caps []float64) []Layer {
	fes := bb.FrontEnds()
	var total float64
	for _, fe := range fes {
		total += caps[fe]
	}
	bestByRegion := map[string]topology.SiteID{}
	mega := topology.InvalidSite
	for _, fe := range fes {
		region := string(bb.Site(fe).Metro.Region)
		if cur, ok := bestByRegion[region]; !ok || caps[fe] > caps[cur] {
			bestByRegion[region] = fe
		}
		if mega == topology.InvalidSite || caps[fe] > caps[mega] {
			mega = fe
		}
	}
	ring1 := make([]topology.SiteID, 0, len(bestByRegion))
	//replay:commutative values are sorted immediately below, so collection order is discarded
	for _, fe := range bestByRegion {
		ring1 = append(ring1, fe)
	}
	sort.Slice(ring1, func(i, j int) bool { return ring1[i] < ring1[j] })
	for _, fe := range ring1 {
		if dc := deepRingShare * total / float64(len(ring1)); caps[fe] < dc {
			caps[fe] = dc
		}
	}
	if dc := megaShare * total; caps[mega] < dc {
		caps[mega] = dc
	}
	return []Layer{{Sites: fes}, {Sites: ring1}, {Sites: []topology.SiteID{mega}}}
}

// WithdrawnSet simulates the naive overload response the paper's §2
// warns about: withdraw the most-overloaded front-end's route outright,
// re-home every ingress to its nearest standing front-end, and repeat
// until nothing is overloaded — usually tipping the neighbours over one
// by one instead. demand is per-ingress query volume. The scan order is
// deterministic (deployment order, ingresses in index order), excess
// ties always withdraw the same site, and the last standing front-end is
// never withdrawn, so the cascade cannot black-hole the whole CDN.
func WithdrawnSet(bb *topology.Backbone, demand, caps []float64) []bool {
	fes := bb.FrontEnds()
	withdrawn := make([]bool, bb.NumSites())
	loads := make([]float64, bb.NumSites())
	for n := 0; n < len(fes)-1; n++ {
		// Compute loads with withdrawn sites' traffic re-homed.
		clear(loads)
		for ing, q := range demand {
			if q == 0 {
				continue
			}
			if fe := NearestStandingFE(bb, topology.SiteID(ing), withdrawn); fe != topology.InvalidSite {
				loads[fe] += q
			}
		}
		// Withdraw the most-overloaded standing site, if any.
		worst := topology.InvalidSite
		worstExcess := 0.0
		for _, fe := range fes {
			if withdrawn[fe] {
				continue
			}
			if excess := loads[fe] - caps[fe]; excess > worstExcess {
				worst, worstExcess = fe, excess
			}
		}
		if worst == topology.InvalidSite {
			break
		}
		withdrawn[worst] = true
	}
	return withdrawn
}

// Withdrawer runs the reactive naive strategy over one backbone, one
// control interval per Step, keeping its scratch across calls, so a
// caller that steps once a day allocates nothing once the scratch has
// grown.
type Withdrawer struct {
	bb    *topology.Backbone
	fes   []topology.SiteID
	loads []float64
	overs []overload
}

// overload is a standing front-end over capacity, by how much.
type overload struct {
	fe     topology.SiteID
	excess float64
}

// NewWithdrawer prepares control intervals over bb.
func NewWithdrawer(bb *topology.Backbone) *Withdrawer {
	return &Withdrawer{bb: bb, fes: bb.FrontEnds(), loads: make([]float64, bb.NumSites())}
}

// Step runs ONE control interval: observe the loads that the current
// withdrawn set produces (every ingress re-homed to its nearest standing
// front-end), withdraw every standing front-end now over capacity, and
// write the next withdrawn set into next; next must be a different
// vector from withdrawn. When nothing is overloaded the next set is
// empty — the naive operator re-announces all routes as soon as the
// fleet looks healthy, with no hysteresis, so a still-surging demand
// immediately re-overloads and the whole cycle restarts. Driven once per
// day by the simulation, this reproduces the paper's cascade as a rolling
// failure: the first interval's withdrawals dump their whole catchments
// onto neighbours, the next interval withdraws those, and so on. At
// least one front-end always stays standing (overflow withdrawals are
// dropped worst-excess first).
func (w *Withdrawer) Step(demand, caps []float64, withdrawn, next []bool) {
	// Loads under the current withdrawn set, summed in ingress order.
	clear(w.loads)
	for ing, q := range demand {
		if q == 0 {
			continue
		}
		if fe := NearestStandingFE(w.bb, topology.SiteID(ing), withdrawn); fe != topology.InvalidSite {
			w.loads[fe] += q
		}
	}
	// Overloaded standing sites, worst excess first (deployment order
	// breaks ties deterministically).
	w.overs = w.overs[:0]
	for _, fe := range w.fes {
		if withdrawn[fe] {
			continue
		}
		if excess := w.loads[fe] - caps[fe]; excess > 0 {
			w.overs = append(w.overs, overload{fe, excess})
		}
	}
	clear(next)
	if len(w.overs) == 0 {
		return
	}
	slices.SortStableFunc(w.overs, func(a, b overload) int { return cmp.Compare(b.excess, a.excess) })
	copy(next, withdrawn)
	n := 0
	for _, fe := range w.fes {
		if next[fe] {
			n++
		}
	}
	for _, o := range w.overs {
		if n >= len(w.fes)-1 {
			break
		}
		next[o.fe] = true
		n++
	}
}

// NearestStandingFE returns the nearest front-end by IGP metric that is
// not withdrawn — where anycast re-homes an ingress's traffic after a
// withdrawal — or InvalidSite if every front-end is withdrawn.
// It walks the backbone's front-ends in place.
func NearestStandingFE(bb *topology.Backbone, ingress topology.SiteID, withdrawn []bool) topology.SiteID {
	fe, _ := bb.HotPotatoFrontEndExcluding(ingress, func(fe topology.SiteID) bool { return withdrawn[fe] })
	return fe
}
