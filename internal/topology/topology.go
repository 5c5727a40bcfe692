// Package topology models the network the paper's CDN lives in: the CDN's
// own autonomous system (sites, backbone links, IGP shortest paths) and the
// client-side ISPs with their egress policies toward the CDN.
//
// Two properties of this topology drive the anycast pathologies the paper's
// traceroute case studies found (§5):
//
//  1. The CDN AS practices hot-potato routing internally: a request that
//     enters at ingress router R is served by the front-end closest to R by
//     IGP metric — not the front-end closest to the client. Some sites are
//     peering-only (no front-end), so entering there costs extra backbone
//     distance ("router A has a longer intradomain route to the nearest
//     front-end").
//  2. ISPs differ in egress policy. Most exit hot-potato at the peering
//     point nearest the client, but some carry traffic to a centralized
//     peering hub first (the paper's Denver→Phoenix and Moscow→Stockholm
//     examples), and some pick among nearby peering points using tie-break
//     rules blind to geography (BGP's "lack of insight into the underlying
//     topology").
package topology

import (
	"fmt"
	"math"

	"anycastcdn/internal/geo"
	"anycastcdn/internal/units"
)

// SiteID identifies a CDN site (index into Backbone.Sites).
type SiteID int

// InvalidSite is returned when no site qualifies.
const InvalidSite SiteID = -1

// SiteSpec describes one CDN site to build.
type SiteSpec struct {
	Metro    string // catalog metro name
	FrontEnd bool   // hosts a front-end cluster
	Peering  bool   // has external peering (announces anycast)
}

// Site is a realized CDN point of presence.
type Site struct {
	ID       SiteID
	Metro    geo.Metro
	FrontEnd bool
	Peering  bool
}

// Backbone is the CDN AS: its sites and intradomain routing.
type Backbone struct {
	Sites []Site

	// igpDist[i][j] is the IGP shortest-path distance in km between sites
	// i and j over backbone links.
	igpDist [][]float64
	// nearestFE[i] is the front-end site served from ingress i under
	// hot-potato routing, and feDist[i] the backbone km to it.
	nearestFE []SiteID
	feDist    []float64
	// nextHop[i][j] is the neighbor of i on the shortest path toward j,
	// used for traceroute reconstruction.
	nextHop [][]SiteID

	frontEnds []SiteID
	peerings  []SiteID
	// frontEndSet and peeringSet hold the front-end and peering sites'
	// metros in frontEnds and peerings order.
	frontEndSet, peeringSet *geo.PointSet
}

type edge struct {
	to   SiteID
	cost float64
}

// Build realizes a backbone from site specs. Each site is linked to its
// degree nearest neighbors (minimum 2), which yields a connected,
// redundant mesh similar in spirit to a continental backbone. Build returns
// an error for unknown metros, duplicate sites, or a deployment with no
// front-ends or no peering sites.
func Build(specs []SiteSpec, degree int) (*Backbone, error) {
	if degree < 2 {
		degree = 2
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("topology: no sites")
	}
	b := &Backbone{}
	seen := map[string]bool{}
	for i, sp := range specs {
		if seen[sp.Metro] {
			return nil, fmt.Errorf("topology: duplicate site metro %q", sp.Metro)
		}
		seen[sp.Metro] = true
		m, ok := geo.FindMetro(sp.Metro)
		if !ok {
			return nil, fmt.Errorf("topology: unknown metro %q", sp.Metro)
		}
		s := Site{ID: SiteID(i), Metro: m, FrontEnd: sp.FrontEnd, Peering: sp.Peering}
		b.Sites = append(b.Sites, s)
		if s.FrontEnd {
			b.frontEnds = append(b.frontEnds, s.ID)
		}
		if s.Peering {
			b.peerings = append(b.peerings, s.ID)
		}
	}
	if len(b.frontEnds) == 0 {
		return nil, fmt.Errorf("topology: deployment has no front-end sites")
	}
	if len(b.peerings) == 0 {
		return nil, fmt.Errorf("topology: deployment has no peering sites")
	}
	b.frontEndSet = b.pointSet(b.frontEnds)
	b.peeringSet = b.pointSet(b.peerings)
	adj := b.buildLinks(degree)
	b.computeRouting(adj)
	return b, nil
}

// pointSet prepares the metros of sites, in that order, for nearest
// searches.
func (b *Backbone) pointSet(sites []SiteID) *geo.PointSet {
	pts := make([]geo.Point, len(sites))
	for i, id := range sites {
		pts[i] = b.Sites[id].Metro.Point
	}
	return geo.NewPointSet(pts)
}

// buildLinks links each site to its `degree` nearest neighbors and returns
// the adjacency list. Links are symmetric.
func (b *Backbone) buildLinks(degree int) [][]edge {
	n := len(b.Sites)
	adj := make([][]edge, n)
	linked := make(map[[2]SiteID]bool)
	addLink := func(i, j SiteID) {
		if i == j {
			return
		}
		key := [2]SiteID{min(i, j), max(i, j)}
		if linked[key] {
			return
		}
		linked[key] = true
		d := geo.DistanceKm(b.Sites[i].Metro.Point, b.Sites[j].Metro.Point).Float()
		adj[i] = append(adj[i], edge{to: j, cost: d})
		adj[j] = append(adj[j], edge{to: i, cost: d})
	}
	pts := make([]geo.Point, n)
	for i, s := range b.Sites {
		pts[i] = s.Metro.Point
	}
	set := geo.NewPointSet(pts)
	// Site i itself takes at most one rank, so the degree nearest other
	// sites lie within the first degree+1.
	order := make([]int, degree+1)
	for i := range b.Sites {
		order = set.RankInto(pts[i], degree+1, order)
		added := 0
		for _, j := range order {
			if SiteID(j) == SiteID(i) {
				continue
			}
			addLink(SiteID(i), SiteID(j))
			added++
			if added >= degree {
				break
			}
		}
	}
	// kNN graphs can leave continental clusters disconnected (no site's k
	// nearest neighbors cross an ocean). Merge components via their
	// shortest cross edge until one remains — these become the long-haul
	// submarine links of the backbone.
	for {
		comp := components(adj)
		if comp.count <= 1 {
			break
		}
		bi, bj := -1, -1
		best := math.Inf(1)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if comp.id[i] == comp.id[j] {
					continue
				}
				if d := geo.DistanceKm(pts[i], pts[j]).Float(); d < best {
					best, bi, bj = d, i, j
				}
			}
		}
		addLink(SiteID(bi), SiteID(bj))
	}
	return adj
}

type componentSet struct {
	id    []int
	count int
}

func components(adj [][]edge) componentSet {
	n := len(adj)
	id := make([]int, n)
	for i := range id {
		id[i] = -1
	}
	count := 0
	for start := 0; start < n; start++ {
		if id[start] != -1 {
			continue
		}
		stack := []int{start}
		id[start] = count
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, e := range adj[u] {
				if id[e.to] == -1 {
					id[e.to] = count
					stack = append(stack, int(e.to))
				}
			}
		}
		count++
	}
	return componentSet{id: id, count: count}
}

// computeRouting runs Dijkstra from every site, filling igpDist, nextHop,
// and the hot-potato front-end choice per ingress.
func (b *Backbone) computeRouting(adj [][]edge) {
	n := len(b.Sites)
	b.igpDist = make([][]float64, n)
	b.nextHop = make([][]SiteID, n)
	for src := 0; src < n; src++ {
		dist, prev := dijkstra(adj, SiteID(src))
		b.igpDist[src] = dist
		// nextHop[src][dst]: first hop from src toward dst, derived by
		// walking prev[] back from dst.
		hops := make([]SiteID, n)
		for dst := 0; dst < n; dst++ {
			hops[dst] = firstHop(prev, SiteID(src), SiteID(dst))
		}
		b.nextHop[src] = hops
	}
	b.nearestFE = make([]SiteID, n)
	b.feDist = make([]float64, n)
	for i := 0; i < n; i++ {
		best, bestD := InvalidSite, math.Inf(1)
		for _, fe := range b.frontEnds {
			if d := b.igpDist[i][fe]; d < bestD {
				best, bestD = fe, d
			}
		}
		b.nearestFE[i] = best
		b.feDist[i] = bestD
	}
}

func dijkstra(adj [][]edge, src SiteID) (dist []float64, prev []SiteID) {
	n := len(adj)
	dist = make([]float64, n)
	prev = make([]SiteID, n)
	done := make([]bool, n)
	for i := range dist {
		dist[i] = math.Inf(1)
		prev[i] = InvalidSite
	}
	dist[src] = 0
	// Simple O(n^2) Dijkstra; n is dozens of sites, run once at build.
	for iter := 0; iter < n; iter++ {
		u := -1
		best := math.Inf(1)
		for i := 0; i < n; i++ {
			if !done[i] && dist[i] < best {
				u, best = i, dist[i]
			}
		}
		if u < 0 {
			break
		}
		done[u] = true
		for _, e := range adj[u] {
			if nd := dist[u] + e.cost; nd < dist[e.to] {
				dist[e.to] = nd
				prev[e.to] = SiteID(u)
			}
		}
	}
	return dist, prev
}

func firstHop(prev []SiteID, src, dst SiteID) SiteID {
	if src == dst {
		return src
	}
	cur := dst
	for prev[cur] != InvalidSite && prev[cur] != src {
		cur = prev[cur]
	}
	if prev[cur] == src {
		return cur
	}
	return InvalidSite // unreachable
}

// FrontEnds returns the front-end site IDs in deployment order.
func (b *Backbone) FrontEnds() []SiteID {
	return append([]SiteID(nil), b.frontEnds...)
}

// FrontEndSet returns the front-end metros prepared for nearest
// searches: answer i is FrontEnds()[i]. It is shared and read-only.
func (b *Backbone) FrontEndSet() *geo.PointSet { return b.frontEndSet }

// PeeringSites returns the peering site IDs in deployment order.
func (b *Backbone) PeeringSites() []SiteID {
	return append([]SiteID(nil), b.peerings...)
}

// Site returns the site with the given ID.
func (b *Backbone) Site(id SiteID) Site { return b.Sites[id] }

// NumSites returns the number of sites.
func (b *Backbone) NumSites() int { return len(b.Sites) }

// IGPDistanceKm returns the intradomain shortest-path distance between two
// sites in backbone kilometers.
func (b *Backbone) IGPDistanceKm(a, c SiteID) units.Kilometers {
	return units.Kilometers(b.igpDist[a][c])
}

// HotPotatoFrontEnd returns the front-end chosen for traffic entering at
// ingress, and the backbone distance to it. This is the CDN-side half of
// anycast selection.
func (b *Backbone) HotPotatoFrontEnd(ingress SiteID) (SiteID, units.Kilometers) {
	return b.nearestFE[ingress], units.Kilometers(b.feDist[ingress])
}

// HotPotatoFrontEndExcluding returns the nearest-by-IGP front-end from
// ingress among front-ends for which excluded reports false, with the
// backbone distance to it. It is the drain-aware variant of
// HotPotatoFrontEnd, used by the fault-injection layer: when a front-end
// is drained, the CDN AS's interior routing falls through to the next
// site. Returns (InvalidSite, +Inf) when every front-end is excluded.
func (b *Backbone) HotPotatoFrontEndExcluding(ingress SiteID, excluded func(SiteID) bool) (SiteID, units.Kilometers) {
	best, bestD := InvalidSite, math.Inf(1)
	for _, fe := range b.frontEnds {
		if excluded != nil && excluded(fe) {
			continue
		}
		if d := b.igpDist[ingress][fe]; d < bestD {
			best, bestD = fe, d
		}
	}
	return best, units.Kilometers(bestD)
}

// Path returns the site-by-site backbone path from src to dst, inclusive.
// Used by the traceroute reconstruction in internal/trace.
func (b *Backbone) Path(src, dst SiteID) []SiteID {
	if src == dst {
		return []SiteID{src}
	}
	path := []SiteID{src}
	cur := src
	for cur != dst {
		nxt := b.nextHop[cur][dst]
		if nxt == InvalidSite || nxt == cur {
			return nil // unreachable
		}
		path = append(path, nxt)
		cur = nxt
		if len(path) > len(b.Sites) {
			return nil // cycle guard; should not happen
		}
	}
	return path
}

// NearestSiteByAir returns the peering site geographically nearest to p and
// the distance, the lowest site ID among equals, or (InvalidSite, +Inf)
// when no distance is a number. Air distance, not IGP: this is what an
// outside network "sees".
func (b *Backbone) NearestSiteByAir(p geo.Point) (SiteID, units.Kilometers) {
	// peerings is in ascending site-ID order, so the set's first index at
	// the minimum is the lowest site ID.
	i, d := b.peeringSet.Nearest(p)
	if i < 0 {
		return InvalidSite, d
	}
	return b.peerings[i], d
}

// RankPeeringByAir returns every peering site ID ordered by increasing
// air distance from p.
func (b *Backbone) RankPeeringByAir(p geo.Point) []SiteID {
	return b.RankPeeringByAirInto(p, len(b.peerings), nil)
}

// rankStackSites bounds the index scratch RankPeeringByAirInto keeps on
// the stack; deployments are at most a couple hundred sites.
const rankStackSites = 256

// RankPeeringByAirInto returns the min(k, peering count) peering sites
// nearest to p by air, nearest first: exactly the first entries of
// RankPeeringByAir, so callers pass the depth they read. When cap(buf)
// covers the answer it is written there and no allocation occurs,
// otherwise a fresh slice is returned. Distance is tie-broken by site ID,
// a total order, so the answer is unique.
func (b *Backbone) RankPeeringByAirInto(p geo.Point, k int, buf []SiteID) []SiteID {
	if k > len(b.peerings) {
		k = len(b.peerings)
	}
	if k < 0 {
		k = 0
	}
	var out []SiteID
	if cap(buf) >= k {
		out = buf[:k]
	} else {
		out = make([]SiteID, k)
	}
	// peerings is in ascending site-ID order, so the set's (distance,
	// index) order is the (distance, site ID) order.
	var ibuf [rankStackSites]int
	for i, idx := range b.peeringSet.RankInto(p, k, ibuf[:0]) {
		out[i] = b.peerings[idx]
	}
	return out
}
