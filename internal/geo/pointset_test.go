package geo

import (
	"math"
	"slices"
	"testing"

	"anycastcdn/internal/units"
	"anycastcdn/internal/xrand"
)

// nearestOracle is the brute-force reference for PointSet.Nearest: the
// first index at the minimum DistanceKm.
func nearestOracle(p Point, pts []Point) (int, units.Kilometers) {
	best, bestKm := -1, units.Kilometers(math.Inf(1))
	for i, q := range pts {
		if km := DistanceKm(p, q); km < bestKm {
			best, bestKm = i, km
		}
	}
	return best, bestKm
}

// rankOracle is the brute-force reference for PointSet.RankInto: a stable
// insertion sort of the indices by (DistanceKm, index).
func rankOracle(p Point, pts []Point) []int {
	idx := make([]int, 0, len(pts))
	km := make([]units.Kilometers, 0, len(pts))
	for i, q := range pts {
		d := DistanceKm(p, q)
		j := len(idx)
		idx, km = append(idx, i), append(km, d)
		for j > 0 && km[j-1] > d {
			idx[j], km[j] = idx[j-1], km[j-1]
			j--
		}
		idx[j], km[j] = i, d
	}
	return idx
}

// checkPointSet compares both PointSet queries at p with the oracles over
// pts, the points s was built from, at every ranking depth in [0, n+1].
func checkPointSet(t testing.TB, s *PointSet, pts []Point, p Point, buf []int) {
	t.Helper()
	depths := make([]int, len(pts)+2)
	for k := range depths {
		depths[k] = k
	}
	checkDepths(t, s, pts, p, buf, depths)
}

// checkDepths compares Nearest at p with its oracle, and RankInto at each
// depth k with the first min(k, n) entries of the oracle's ranking.
func checkDepths(t testing.TB, s *PointSet, pts []Point, p Point, buf []int, depths []int) {
	t.Helper()
	wantIdx, wantKm := nearestOracle(p, pts)
	if idx, km := s.Nearest(p); idx != wantIdx || km != wantKm {
		t.Fatalf("Nearest(%v) = (%d, %v), oracle (%d, %v)", p, idx, km, wantIdx, wantKm)
	}
	want := rankOracle(p, pts)
	for _, k := range depths {
		if got := s.RankInto(p, k, buf); !slices.Equal(got, want[:min(k, len(want))]) {
			t.Fatalf("RankInto(%v, %d) = %v, oracle prefix %v", p, k, got, want[:min(k, len(want))])
		}
	}
}

func catalogPoints() []Point {
	ms := World()
	pts := make([]Point, len(ms))
	for i, m := range ms {
		pts[i] = m.Point
	}
	return pts
}

func antipode(p Point) Point {
	lon := p.Lon + 180
	if lon > 180 {
		lon -= 360
	}
	return Point{Lat: -p.Lat, Lon: lon}
}

// TestPointSetMatchesDistanceOracle pins PointSet's exactness against the
// DistanceKm oracles, at every ranking depth: seeded random points over
// the whole sphere, every site, each site's antipode and a point 1e-7°
// off each site, a set with two sites 1e-9° apart, and NaN, infinite and
// out-of-range queries.
func TestPointSetMatchesDistanceOracle(t *testing.T) {
	pts := catalogPoints()
	s := NewPointSet(pts)
	buf := make([]int, len(pts))
	// The random queries run against every third catalog metro, a
	// deployment-sized set that keeps 100k oracle sorts quick.
	var third []Point
	for i := 0; i < len(pts); i += 3 {
		third = append(third, pts[i])
	}
	ss := NewPointSet(third)
	var rs xrand.Stream
	label := xrand.NewLabel("pointset")
	n := len(third)
	for i := uint64(0); i < 100_000; i++ {
		rs.Reseed(xrand.DeriveSeedL1(7, label, i))
		// Every depth on one query in 32; the full ranking and one depth
		// cycling through [0, n+1] on the rest.
		if i%32 == 0 {
			checkPointSet(t, ss, third, randPoint(&rs), buf)
		} else {
			checkDepths(t, ss, third, randPoint(&rs), buf, []int{n, int(i % uint64(n+2))})
		}
	}
	for _, q := range pts {
		checkPointSet(t, s, pts, q, buf)
		checkPointSet(t, s, pts, antipode(q), buf)
		checkPointSet(t, s, pts, Point{Lat: q.Lat + 1e-7, Lon: q.Lon - 1e-7}, buf)
	}
	// Two sites 1e-9° apart: their dot products tie, so the exact pass
	// orders them. Placed at both ends of the set around new-york, the
	// tied run straddles the prefix's end at the shallow depths for
	// queries near new-york and at the deep ones for its antipode.
	ny, _ := FindMetro("new-york")
	twin := Point{Lat: ny.Point.Lat + 1e-9, Lon: ny.Point.Lon}
	tight := append(append([]Point{twin}, pts...), twin)
	ts := NewPointSet(tight)
	for _, q := range []Point{ny.Point, twin, antipode(ny.Point),
		{Lat: ny.Point.Lat + 5e-10, Lon: ny.Point.Lon}, {Lat: ny.Point.Lat + 1e-7, Lon: ny.Point.Lon + 1e-7},
		{Lat: ny.Point.Lat - 2, Lon: ny.Point.Lon}} {
		checkPointSet(t, ts, tight, q, nil)
	}
	nan, inf := math.NaN(), math.Inf(1)
	for _, q := range []Point{{nan, 0}, {0, nan}, {nan, nan}, {inf, 0}, {0, -inf},
		{95, 10}, {-100, 200}, {45, 540}, {-90.0000001, 0}, {90, 180.5}, {1e300, -1e300}} {
		checkPointSet(t, s, pts, q, buf)
		checkPointSet(t, ts, tight, q, nil)
	}
	if idx, km := s.Nearest(Point{nan, 0}); idx != -1 || !math.IsInf(km.Float(), 1) {
		t.Fatalf("Nearest(NaN) = (%d, %v), want (-1, +Inf)", idx, km)
	}
	identity := make([]int, len(pts))
	for i := range identity {
		identity[i] = i
	}
	if got := s.RankInto(Point{nan, 0}, len(pts), nil); !slices.Equal(got, identity) {
		t.Fatalf("RankInto(NaN) = %v, want index order", got)
	}
}

// FuzzPointSet runs the oracle comparison on arbitrary queries against the
// catalog plus one extra site placed (dLat, dLon) off a catalog site, so
// the fuzzer can build near-ties.
func FuzzPointSet(f *testing.F) {
	f.Add(40.71, -74.01, uint8(0), 1e-9, 0.0)
	f.Add(-40.71, 105.99, uint8(0), 0.0, 0.0)
	f.Add(51.51, -0.13, uint8(3), 1e-7, -1e-7)
	f.Add(math.NaN(), 0.0, uint8(1), 0.0, 0.0)
	f.Add(95.0, 200.0, uint8(2), 0.5, 0.5)
	pts := catalogPoints()
	f.Fuzz(func(t *testing.T, lat, lon float64, site uint8, dLat, dLon float64) {
		set := pts
		base := pts[int(site)%len(pts)]
		if extra := (Point{Lat: base.Lat + dLat, Lon: base.Lon + dLon}); extra.Valid() {
			set = append(slices.Clip(pts), extra)
		}
		checkPointSet(t, NewPointSet(set), set, Point{Lat: lat, Lon: lon}, nil)
	})
}

func TestPointSetNearest(t *testing.T) {
	ny, _ := FindMetro("new-york")
	pts := []Point{}
	for _, name := range []string{"los-angeles", "chicago", "boston", "london"} {
		m, _ := FindMetro(name)
		pts = append(pts, m.Point)
	}
	idx, d := NewPointSet(pts).Nearest(ny.Point)
	if idx != 2 {
		t.Fatalf("nearest to new-york = index %d, want 2 (boston)", idx)
	}
	if d < 100 || d > 500 {
		t.Fatalf("new-york to boston distance %.0f out of expected range", d)
	}
	if idx, d := NewPointSet(nil).Nearest(ny.Point); idx != -1 || !math.IsInf(d.Float(), 1) {
		t.Fatal("Nearest on an empty set should be (-1, +Inf)")
	}
}

func TestPointSetRank(t *testing.T) {
	ny, _ := FindMetro("new-york")
	names := []string{"london", "boston", "chicago", "los-angeles"}
	pts := make([]Point, len(names))
	for i, n := range names {
		m, _ := FindMetro(n)
		pts[i] = m.Point
	}
	buf := make([]int, 0, len(pts))
	order := NewPointSet(pts).RankInto(ny.Point, len(pts), buf)
	want := []int{1, 2, 3, 0} // boston, chicago, LA, london
	if !slices.Equal(order, want) {
		t.Fatalf("rank order = %v, want %v", order, want)
	}
	if &order[0] != &buf[:1][0] {
		t.Fatal("RankInto did not rank into a buffer that covers the set")
	}
	// Property: distances are non-decreasing along the ranking.
	prev := units.Kilometers(-1)
	for _, idx := range order {
		d := DistanceKm(ny.Point, pts[idx])
		if d < prev {
			t.Fatal("RankInto output not sorted")
		}
		prev = d
	}
}
