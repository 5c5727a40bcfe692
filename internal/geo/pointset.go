package geo

import (
	"math"

	"anycastcdn/internal/units"
)

// tieEps is the dot-product gap below which PointSet stops trusting the
// dot-product order and compares exact DistanceKm values instead.
//
// Why a wider gap cannot flip the haversine order: cos is 1-Lipschitz,
// so |Δcos| ≤ |Δθ| (more precisely Δθ ≥ Δcos / sin θ), and two dot
// products more than tieEps apart belong to angles more than tieEps
// radians (~6 mm at Earth scale) apart. The dot products round at about
// 1e-16. DistanceKm's haversine is a monotone function of the same
// quantity, h = (1 − cos θ)/2, and for in-range coordinates also rounds
// at about 1e-16 in h, misjudging the angle by about 1e-16 / sin θ. Both
// errors sit seven orders of magnitude below the gap, so only runs of dot
// products within tieEps of each other need the exact distances.
const tieEps = 1e-9

// rankStack bounds the dot-product scratch RankInto keeps on the stack;
// larger sets fall back to the heap.
const rankStack = 256

type vec3 struct{ x, y, z float64 }

func (a vec3) dot(b vec3) float64 { return a.x*b.x + a.y*b.y + a.z*b.z }

func unitVector(p Point) vec3 {
	const degToRad = math.Pi / 180
	sinLat, cosLat := math.Sincos(p.Lat * degToRad)
	sinLon, cosLon := math.Sincos(p.Lon * degToRad)
	return vec3{cosLat * cosLon, cosLat * sinLon, sinLat}
}

// queryVector is p's unit vector, or the zero vector when p is not Valid.
// Outside the coordinate ranges DistanceKm's degree arithmetic no longer
// tracks the unit vector to 1e-16 — it can even return NaN for one point
// and not another — so the tieEps bound does not hold. The zero vector
// scores every point 0, one near-tie run that the exact pass resolves by
// DistanceKm alone.
func queryVector(p Point) vec3 {
	if !p.Valid() {
		return vec3{}
	}
	return unitVector(p)
}

// PointSet is a fixed set of points prepared for repeated nearest-point
// and ranking queries. It stores each point's unit vector, so scoring a
// query against a point costs one dot product instead of a haversine: the
// larger the dot product, the nearer the point. Every answer is exactly
// what a scan of DistanceKm values gives, ties broken by index (see
// tieEps). A PointSet is read-only after construction and safe for
// concurrent use.
type PointSet struct {
	pts  []Point
	vecs []vec3
}

// NewPointSet prepares a set over a copy of pts, which must be Valid;
// indices in answers are positions in pts.
func NewPointSet(pts []Point) *PointSet {
	s := &PointSet{pts: append([]Point(nil), pts...), vecs: make([]vec3, len(pts))}
	for i, p := range pts {
		s.vecs[i] = unitVector(p)
	}
	return s
}

// Nearest returns the index of the point nearest to p — the first index
// at the minimum DistanceKm — and that distance. It returns (-1, +Inf)
// for an empty set or a query whose distances are all NaN.
//
//perf:hotpath
func (s *PointSet) Nearest(p Point) (int, units.Kilometers) {
	u := queryVector(p)
	best, bestDot, runnerUp := -1, math.Inf(-1), math.Inf(-1)
	for i, v := range s.vecs {
		if d := u.dot(v); d > bestDot {
			best, bestDot, runnerUp = i, d, bestDot
		} else if d > runnerUp {
			runnerUp = d
		}
	}
	if best >= 0 && bestDot-runnerUp > tieEps {
		return best, DistanceKm(p, s.pts[best])
	}
	// A near-tie: any point within tieEps of the best dot product may be
	// the nearest, so scan those by exact distance.
	best, bestKm := -1, units.Kilometers(math.Inf(1))
	for i, v := range s.vecs {
		if bestDot-u.dot(v) > tieEps {
			continue
		}
		if km := DistanceKm(p, s.pts[i]); km < bestKm {
			best, bestKm = i, km
		}
	}
	return best, bestKm
}

// RankInto returns the indices of the min(k, n) points nearest to p,
// ordered by increasing DistanceKm, ties broken by index: exactly the
// first min(k, n) entries of a stable sort of all n points by distance. A
// k of at least n ranks the whole set; a k below 1 returns an empty
// ranking. The ranking goes into buf when cap(buf) covers it, and then
// nothing is allocated for sets of up to 256 points; otherwise a fresh
// slice is returned.
//
// Only the k largest dot products are kept, so a caller that reads a
// short prefix pays for a short insertion. The exact pass below orders
// every near-tie run among them; when such a run straddles position k,
// which of its points fall inside the prefix takes the distances of the
// whole run, and RankInto ranks the full set instead.
//
//perf:hotpath
func (s *PointSet) RankInto(p Point, k int, buf []int) []int {
	n := len(s.vecs)
	k = min(max(k, 0), n)
	var out []int
	if cap(buf) >= k {
		out = buf[:k]
	} else {
		out = make([]int, k)
	}
	if k == 0 {
		return out
	}
	var kbuf [rankStack]float64
	var keys []float64
	if k <= len(kbuf) {
		keys = kbuf[:k]
	} else {
		keys = make([]float64, k)
	}
	u := queryVector(p)
	if s.topByDot(u, out, keys) <= tieEps {
		s.rankPrefixOfAll(p, u, out)
		return out
	}
	s.resolveTies(p, out, keys)
	return out
}

// topByDot fills idx with the indices of the len(idx) largest dot
// products with u, in decreasing order with equal dot products in index
// order, and keys with those dot products: a bounded insertion sort, fast
// at deployment scale (tens of sites). It returns the gap between the
// last kept dot product and the largest one left out, +Inf when none is.
func (s *PointSet) topByDot(u vec3, idx []int, keys []float64) float64 {
	k := len(idx)
	next := math.Inf(-1)
	m := 0
	for i, v := range s.vecs {
		d := u.dot(v)
		if m == k {
			// The prefix is full: d enters only by beating its last
			// entry, and an equal one sorts after it by index.
			if d <= keys[k-1] {
				next = max(next, d)
				continue
			}
			next = max(next, keys[k-1])
			m--
		}
		j := m
		for j > 0 && keys[j-1] < d {
			keys[j], idx[j] = keys[j-1], idx[j-1]
			j--
		}
		keys[j], idx[j] = d, i
		m++
	}
	return keys[k-1] - next
}

// resolveTies re-orders each run of dot products within tieEps of its
// neighbour by exact (distance, index), overwriting the run's keys.
func (s *PointSet) resolveTies(p Point, idx []int, keys []float64) {
	n := len(idx)
	for lo := 0; lo < n; {
		hi := lo + 1
		for hi < n && keys[hi-1]-keys[hi] <= tieEps {
			hi++
		}
		if hi-lo > 1 {
			s.sortByKm(p, idx[lo:hi], keys[lo:hi])
		}
		lo = hi
	}
}

// rankPrefixOfAll ranks every point and copies the first len(out) into
// out: RankInto's answer when a near-tie run straddles the prefix's end.
func (s *PointSet) rankPrefixOfAll(p Point, u vec3, out []int) {
	n := len(s.vecs)
	var ibuf [rankStack]int
	var kbuf [rankStack]float64
	var idx []int
	var keys []float64
	if n <= rankStack {
		idx, keys = ibuf[:n], kbuf[:n]
	} else {
		idx, keys = make([]int, n), make([]float64, n)
	}
	s.topByDot(u, idx, keys)
	s.resolveTies(p, idx, keys)
	copy(out, idx)
}

// sortByKm insertion-sorts idx by (DistanceKm from p, index), overwriting
// km with the distances.
func (s *PointSet) sortByKm(p Point, idx []int, km []float64) {
	for i, k := range idx {
		d := DistanceKm(p, s.pts[k]).Float()
		j := i
		for j > 0 && (km[j-1] > d || (km[j-1] == d && idx[j-1] > k)) {
			km[j], idx[j] = km[j-1], idx[j-1]
			j--
		}
		km[j], idx[j] = d, k
	}
}
