package geo

import (
	"math"
	"testing"
	"testing/quick"

	"anycastcdn/internal/units"
	"anycastcdn/internal/xrand"
)

func TestDistanceKnownPairs(t *testing.T) {
	cases := []struct {
		a, b       string
		wantKm     float64
		toleranceK float64
	}{
		{"new-york", "los-angeles", 3940, 100},
		{"london", "paris", 344, 25},
		{"moscow", "stockholm", 1230, 80},
		{"denver", "phoenix", 950, 80},
		{"tokyo", "osaka", 400, 40},
		{"sydney", "auckland", 2160, 120},
	}
	for _, c := range cases {
		ma, ok := FindMetro(c.a)
		if !ok {
			t.Fatalf("metro %q missing", c.a)
		}
		mb, ok := FindMetro(c.b)
		if !ok {
			t.Fatalf("metro %q missing", c.b)
		}
		got := DistanceKm(ma.Point, mb.Point)
		if math.Abs(got.Float()-c.wantKm) > c.toleranceK {
			t.Errorf("distance %s-%s = %.0f km, want %.0f±%.0f", c.a, c.b, got, c.wantKm, c.toleranceK)
		}
	}
}

func TestDistanceProperties(t *testing.T) {
	// Symmetry and identity over random valid points.
	f := func(lat1, lon1, lat2, lon2 float64) bool {
		a := Point{Lat: clamp(lat1, -90, 90), Lon: clamp(lon1, -180, 180)}
		b := Point{Lat: clamp(lat2, -90, 90), Lon: clamp(lon2, -180, 180)}
		dab := DistanceKm(a, b)
		dba := DistanceKm(b, a)
		if math.Abs(dab.Float()-dba.Float()) > 1e-6 {
			return false
		}
		if DistanceKm(a, a) > 1e-6 {
			return false
		}
		// Great-circle distance is bounded by half the circumference.
		return dab >= 0 && dab.Float() <= math.Pi*EarthRadiusKm.Float()+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func clamp(v, lo, hi float64) float64 {
	if math.IsNaN(v) {
		return lo
	}
	return math.Mod(math.Abs(v), hi-lo) + lo
}

func TestPointValid(t *testing.T) {
	if !(Point{0, 0}).Valid() {
		t.Error("origin should be valid")
	}
	if (Point{91, 0}).Valid() {
		t.Error("lat 91 should be invalid")
	}
	if (Point{0, 181}).Valid() {
		t.Error("lon 181 should be invalid")
	}
	if (Point{math.NaN(), 0}).Valid() {
		t.Error("NaN lat should be invalid")
	}
}

func TestOffsetDistance(t *testing.T) {
	m, _ := FindMetro("chicago")
	o := NewOrigin(m.Point)
	for _, d := range []units.Kilometers{1, 50, 500, 3000} {
		for _, brg := range []float64{0, 45, 90, 180, 270} {
			p := o.Offset(d, brg)
			if !p.Valid() {
				t.Fatalf("Offset(%v,%v) produced invalid point %v", d, brg, p)
			}
			got := DistanceKm(m.Point, p)
			if math.Abs(got.Float()-d.Float()) > d.Float()*0.01+0.1 {
				t.Errorf("Offset(%v km, %v deg): actual distance %.2f km", d, brg, got)
			}
		}
	}
}

func TestOffsetCrossesAntimeridian(t *testing.T) {
	m := Metro{Point: Point{Lat: 0, Lon: 179.5}}
	o := NewOrigin(m.Point)
	p := o.Offset(200, 90)
	if !p.Valid() {
		t.Fatalf("offset across antimeridian produced invalid point %v", p)
	}
	if d := DistanceKm(m.Point, p); math.Abs(d.Float()-200) > 3 {
		t.Fatalf("antimeridian offset distance = %.1f, want ~200", d)
	}
}

// referenceOffset is Origin.Offset as the textbook formula, evaluating
// every sine and cosine where it appears.
func referenceOffset(center Point, dKm units.Kilometers, bearingDeg float64) Point {
	const degToRad = math.Pi / 180
	br := bearingDeg * degToRad
	lat1 := center.Lat * degToRad
	lon1 := center.Lon * degToRad
	ad := dKm.Float() / EarthRadiusKm.Float()
	lat2 := math.Asin(math.Sin(lat1)*math.Cos(ad) + math.Cos(lat1)*math.Sin(ad)*math.Cos(br))
	lon2 := lon1 + math.Atan2(math.Sin(br)*math.Sin(ad)*math.Cos(lat1),
		math.Cos(ad)-math.Sin(lat1)*math.Sin(lat2))
	lonDeg := math.Mod(lon2/degToRad+540, 360) - 180
	return Point{Lat: lat2 / degToRad, Lon: lonDeg}
}

// TestOffsetMatchesReference pins Offset's once-per-term evaluation as
// exact: an Origin built once and reused returns the textbook formula's
// bits for random centers (the poles, the antimeridian and zero distance
// among them) and for offsets around every catalog metro.
func TestOffsetMatchesReference(t *testing.T) {
	same := func(a, b Point) bool {
		return math.Float64bits(a.Lat) == math.Float64bits(b.Lat) && math.Float64bits(a.Lon) == math.Float64bits(b.Lon)
	}
	check := func(center Point, o *Origin, d units.Kilometers, brg float64) {
		t.Helper()
		want := referenceOffset(center, d, brg)
		if got := o.Offset(d, brg); !same(got, want) {
			t.Fatalf("Origin%v.Offset(%v, %v) = %v, reference %v", center, d, brg, got, want)
		}
	}
	rs := xrand.New(17)
	edges := []Point{{90, 0}, {-90, 0}, {90, 180}, {-90, -180}, {0, 180}, {0, -180}, {45, 179.999}, {-45, -179.999}, {0, 0}}
	for _, p := range edges {
		o := NewOrigin(p)
		for _, d := range []units.Kilometers{0, 1e-9, 1, 140, 5000, 20015, 40000} {
			for _, brg := range []float64{0, 45, 90, 180, 270, 359.999} {
				check(p, &o, d, brg)
			}
		}
	}
	for i := 0; i < 200_000; i++ {
		p := Point{Lat: rs.Float64()*180 - 90, Lon: rs.Float64()*360 - 180}
		o := NewOrigin(p)
		d := units.Kilometers(rs.Float64() * 20000)
		if i%8 == 0 {
			d = 0
		}
		check(p, &o, d, rs.Float64()*360)
	}
	for _, m := range World() {
		o := NewOrigin(m.Point)
		for i := 0; i < 2_000; i++ {
			check(m.Point, &o, units.Kilometers(140*rs.LogNormal(0, 0.8)), rs.Float64()*360)
		}
	}
}

// referenceDistanceKm is the textbook haversine, both latitude cosines
// computed in the expression; clamped reports whether h rounded past 1.
func referenceDistanceKm(a, b Point) (km units.Kilometers, clamped bool) {
	const degToRad = math.Pi / 180
	lat1 := a.Lat * degToRad
	lat2 := b.Lat * degToRad
	dLat := (b.Lat - a.Lat) * degToRad
	dLon := (b.Lon - a.Lon) * degToRad
	sinLat := math.Sin(dLat / 2)
	sinLon := math.Sin(dLon / 2)
	h := sinLat*sinLat + math.Cos(lat1)*math.Cos(lat2)*sinLon*sinLon
	if h > 1 {
		h, clamped = 1, true
	}
	return units.Kilometers(2 * EarthRadiusKm.Float() * math.Asin(math.Sqrt(h))), clamped
}

// TestOriginDistanceMatchesReference pins Origin.DistanceKm and
// DistanceKm to the textbook haversine's bits: on random pairs, on pairs
// at the poles and across the antimeridian, on equal points, and on
// antipodal pairs, some of which round h past 1 and take the clamp.
func TestOriginDistanceMatchesReference(t *testing.T) {
	check := func(a, b Point) bool {
		t.Helper()
		want, clamped := referenceDistanceKm(a, b)
		oa, ob := NewOrigin(a), NewOrigin(b)
		if got := oa.DistanceKm(&ob); math.Float64bits(got.Float()) != math.Float64bits(want.Float()) {
			t.Fatalf("Origin%v.DistanceKm(%v) = %v, reference %v", a, b, got, want)
		}
		if got := DistanceKm(a, b); math.Float64bits(got.Float()) != math.Float64bits(want.Float()) {
			t.Fatalf("DistanceKm(%v, %v) = %v, reference %v", a, b, got, want)
		}
		return clamped
	}
	edges := []Point{{90, 0}, {-90, 0}, {90, 180}, {-90, -180}, {0, 180}, {0, -180}, {45, 179.999}, {-45, -179.999}, {0, 0}, {51.5, -0.1}}
	for _, a := range edges {
		for _, b := range edges {
			check(a, b)
		}
	}
	rs := xrand.New(23)
	clamps := 0
	for i := 0; i < 200_000; i++ {
		a := Point{Lat: rs.Float64()*180 - 90, Lon: rs.Float64()*360 - 180}
		b := Point{Lat: rs.Float64()*180 - 90, Lon: rs.Float64()*360 - 180}
		check(a, b)
		check(a, a)
		// The antipode, whose h is 1 in real arithmetic.
		anti := Point{Lat: -a.Lat, Lon: a.Lon + 180}
		if anti.Lon > 180 {
			anti.Lon -= 360
		}
		if check(a, anti) {
			clamps++
		}
	}
	if clamps == 0 {
		t.Fatal("no antipodal pair rounded h past 1; the clamp went untested")
	}
	for _, m := range World() {
		for _, n := range World() {
			check(m.Point, n.Point)
		}
	}
}

func TestWorldCatalog(t *testing.T) {
	ms := World()
	if len(ms) < 150 {
		t.Fatalf("catalog has %d metros, want >= 150", len(ms))
	}
	names := map[string]bool{}
	regions := map[Region]int{}
	for _, m := range ms {
		if names[m.Name] {
			t.Errorf("duplicate metro name %q", m.Name)
		}
		names[m.Name] = true
		if !m.Point.Valid() {
			t.Errorf("metro %q has invalid point %v", m.Name, m.Point)
		}
		if m.Weight <= 0 {
			t.Errorf("metro %q has non-positive weight", m.Name)
		}
		if m.Country == "" {
			t.Errorf("metro %q has empty country", m.Name)
		}
		regions[m.Region]++
	}
	for _, r := range []Region{RegionNorthAmerica, RegionEurope, RegionAsia,
		RegionSouthAmerica, RegionOceania, RegionAfrica} {
		if regions[r] < 5 {
			t.Errorf("region %s has only %d metros", r, regions[r])
		}
	}
}

func TestWorldReturnsCopy(t *testing.T) {
	a := World()
	a[0].Name = "mutated"
	b := World()
	if b[0].Name == "mutated" {
		t.Fatal("World returned a shared slice")
	}
}

func TestFindMetroMissing(t *testing.T) {
	if _, ok := FindMetro("atlantis"); ok {
		t.Fatal("FindMetro found a nonexistent metro")
	}
}

func TestGeoDBPerfect(t *testing.T) {
	db := PerfectDB()
	p := Point{40, -70}
	if got := db.Locate(1, p); got != p {
		t.Fatalf("perfect DB moved the point: %v", got)
	}
}

func TestGeoDBConsistentAndBounded(t *testing.T) {
	db := NewDB(99, 30, 0.02, 4000)
	truth := Point{48.86, 2.35}
	a := db.Locate(7, truth)
	b := db.Locate(7, truth)
	if a != b {
		t.Fatal("geolocation DB is not consistent per id")
	}
	// Across many ids, the median error should be near the configured value.
	var errs []float64
	for id := uint64(0); id < 2000; id++ {
		p := db.Locate(id, truth)
		errs = append(errs, DistanceKm(truth, p).Float())
	}
	med := median(errs)
	if med < 15 || med > 60 {
		t.Fatalf("median geolocation error %.1f km, want ~30", med)
	}
}

func TestGeoDBGrossErrors(t *testing.T) {
	db := NewDB(5, 30, 0.05, 5000)
	truth := Point{34, -118}
	gross := 0
	const n = 5000
	for id := uint64(0); id < n; id++ {
		if DistanceKm(truth, db.Locate(id, truth)) > 1500 {
			gross++
		}
	}
	frac := float64(gross) / n
	if frac < 0.01 || frac > 0.10 {
		t.Fatalf("gross error fraction %.3f, want near 0.05", frac)
	}
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
	return s[len(s)/2]
}

func BenchmarkDistanceKm(b *testing.B) {
	p1 := Point{40.71, -74.01}
	p2 := Point{34.05, -118.24}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = DistanceKm(p1, p2)
	}
}
