// Package geo provides geographic primitives for the simulator: lat/lon
// points, great-circle distance, a world metro catalog with population
// weights, and a geolocation database with a configurable error model.
//
// Distances drive almost every result in the paper (client→front-end
// distance, distance past closest, switch distance), so the catalog covers
// enough of the world that a "dozens of front-ends" deployment has the same
// density contrast between North America / Europe and the rest of the world
// that the Bing deployment had.
package geo

import (
	"fmt"
	"math"

	"anycastcdn/internal/units"
)

// EarthRadiusKm is the mean Earth radius used for great-circle distances.
const EarthRadiusKm units.Kilometers = 6371.0

// Point is a position on Earth in degrees.
type Point struct {
	Lat float64 // latitude in [-90, 90]
	Lon float64 // longitude in [-180, 180]
}

// Valid reports whether the point's coordinates are in range.
func (p Point) Valid() bool {
	return p.Lat >= -90 && p.Lat <= 90 && p.Lon >= -180 && p.Lon <= 180 &&
		!math.IsNaN(p.Lat) && !math.IsNaN(p.Lon)
}

func (p Point) String() string {
	return fmt.Sprintf("(%.3f,%.3f)", p.Lat, p.Lon)
}

// DistanceKm returns the great-circle (haversine) distance between two
// points in kilometers.
func DistanceKm(a, b Point) units.Kilometers {
	return haversineKm(a, b, math.Cos(a.Lat*degToRad), math.Cos(b.Lat*degToRad))
}

// haversineKm is DistanceKm given the cosines of both latitudes.
func haversineKm(a, b Point, cosLat1, cosLat2 float64) units.Kilometers {
	dLat := (b.Lat - a.Lat) * degToRad
	dLon := (b.Lon - a.Lon) * degToRad
	sinLat := math.Sin(dLat / 2)
	sinLon := math.Sin(dLon / 2)
	h := sinLat*sinLat + cosLat1*cosLat2*sinLon*sinLon
	if h > 1 {
		h = 1
	}
	return units.Kilometers(2 * EarthRadiusKm.Float() * math.Asin(math.Sqrt(h)))
}

// Region is a coarse world region used to slice results (Figure 3 reports
// Europe / World / United States separately).
type Region string

// Regions used throughout the simulator.
const (
	RegionNorthAmerica Region = "north-america"
	RegionEurope       Region = "europe"
	RegionAsia         Region = "asia"
	RegionSouthAmerica Region = "south-america"
	RegionOceania      Region = "oceania"
	RegionAfrica       Region = "africa"
)

// Metro is a metropolitan area: a name, a position, a region, and a relative
// Internet population weight used when placing clients.
type Metro struct {
	Name    string
	Point   Point
	Region  Region
	Country string
	// Weight is a relative share of client population, roughly proportional
	// to Internet user population of the metro area.
	Weight float64
}

// Origin is a point to offset other points from or measure distances to,
// with the sine and cosine of its latitude computed once. A caller that
// offsets many points from one center — the client generator scatters
// every client of a metro from it — or measures one point against many
// pays for them once per point instead of once per call.
type Origin struct {
	Point          Point
	sinLat, cosLat float64
}

// NewOrigin precomputes p's latitude terms.
func NewOrigin(p Point) Origin {
	lat := p.Lat * degToRad
	return Origin{Point: p, sinLat: math.Sin(lat), cosLat: math.Cos(lat)}
}

// degToRad converts degrees to radians.
const degToRad = math.Pi / 180

// Offset returns the point dKm kilometers from the origin at the given
// bearing in degrees, on the great circle through both. It computes each
// sine and cosine once, with every operand, order and grouping of the
// textbook formula, so the same bits come out as from evaluating it term
// by term.
func (o *Origin) Offset(dKm units.Kilometers, bearingDeg float64) Point {
	br := bearingDeg * degToRad
	lon1 := o.Point.Lon * degToRad
	ad := dKm.Float() / EarthRadiusKm.Float()
	sinAd, cosAd := math.Sin(ad), math.Cos(ad)
	lat2 := math.Asin(o.sinLat*cosAd + o.cosLat*sinAd*math.Cos(br))
	lon2 := lon1 + math.Atan2(math.Sin(br)*sinAd*o.cosLat,
		cosAd-o.sinLat*math.Sin(lat2))
	// Normalize longitude into [-180, 180].
	lonDeg := math.Mod(lon2/degToRad+540, 360) - 180
	return Point{Lat: lat2 / degToRad, Lon: lonDeg}
}

// DistanceKm returns the great-circle distance from o to p:
// DistanceKm(o.Point, p.Point), bit for bit, with both latitude cosines
// read from the origins instead of computed.
func (o *Origin) DistanceKm(p *Origin) units.Kilometers {
	return haversineKm(o.Point, p.Point, o.cosLat, p.cosLat)
}
