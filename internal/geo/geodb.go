package geo

import (
	"anycastcdn/internal/units"
	"anycastcdn/internal/xrand"
)

// DB is a geolocation database with an error model. The paper's analysis
// depends on geolocation twice: the authoritative DNS ranks front-ends by
// distance to the LDNS using a commercial geolocation database, and the
// distance analysis geolocates client /24s. Footnote 1 of the paper notes
// that "no geolocation database is perfect" — a fraction of very long
// client-to-front-end distances may be geolocation error. DB reproduces
// that: looking up an entity returns its true position displaced by a
// lognormal error, and a small fraction of lookups are grossly wrong.
type DB struct {
	// MedianErrorKm is the median displacement of a normal lookup.
	// Commercial databases at city granularity are typically tens of km off.
	MedianErrorKm units.Kilometers
	// GrossErrorRate is the probability that a lookup is wildly wrong
	// (e.g. geolocated to a registrant address on another continent).
	GrossErrorRate float64
	// GrossErrorKm is the scale of a gross error displacement.
	GrossErrorKm units.Kilometers

	seed uint64
}

// NewDB returns a database with the given error model rooted at seed.
// A zero MedianErrorKm produces perfect lookups.
func NewDB(seed uint64, medianErrKm units.Kilometers, grossRate float64, grossKm units.Kilometers) *DB {
	return &DB{
		MedianErrorKm:  medianErrKm,
		GrossErrorRate: grossRate,
		GrossErrorKm:   grossKm,
		seed:           seed,
	}
}

// labelGeoDB is the precomputed label of Locate's per-entity substream.
var labelGeoDB = xrand.NewLabel("geodb")

// PerfectDB returns a database that always reports true positions.
func PerfectDB() *DB { return &DB{} }

// Locate returns the database's belief about the position of the entity
// with the given stable id whose true position is truth. The same id always
// produces the same answer (databases are wrong consistently, not noisily).
func (db *DB) Locate(id uint64, truth Point) Point {
	if db.MedianErrorKm <= 0 && db.GrossErrorRate <= 0 {
		return truth
	}
	var rs xrand.Stream
	rs.Reseed(xrand.DeriveSeedL1(db.seed, labelGeoDB, id))
	bearing := rs.Float64() * 360
	var dist units.Kilometers
	if rs.Bool(db.GrossErrorRate) {
		dist = units.Kilometers(rs.Exp(db.GrossErrorKm.Float()))
	} else {
		// Lognormal with median MedianErrorKm and moderate spread.
		dist = units.Kilometers(db.MedianErrorKm.Float() * rs.LogNormal(0, 0.75))
	}
	o := NewOrigin(truth)
	return o.Offset(dist, bearing)
}
