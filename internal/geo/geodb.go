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
	// The error model, as the constants below describe it.
	medianErrKm units.Kilometers
	grossRate   float64
	grossKm     units.Kilometers

	seed uint64
}

// The error model of every database the simulation builds: the
// authority's LDNS lookups and the experiment suite's client lookups.
const (
	// MedianErrorKm is the median displacement of a normal lookup.
	// Commercial databases at city granularity are typically tens of km off.
	MedianErrorKm units.Kilometers = 25
	// GrossErrorRate is the probability that a lookup is wildly wrong
	// (e.g. geolocated to a registrant address on another continent).
	GrossErrorRate = 0.01
	// GrossErrorKm is the scale of a gross error displacement.
	GrossErrorKm units.Kilometers = 4000
)

// NewDB returns a database with the given error model rooted at seed.
// A zero median error and gross-error rate produce perfect lookups.
func NewDB(seed uint64, medianErrKm units.Kilometers, grossRate float64, grossKm units.Kilometers) *DB {
	return &DB{
		medianErrKm: medianErrKm,
		grossRate:   grossRate,
		grossKm:     grossKm,
		seed:        seed,
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
	if db.medianErrKm <= 0 && db.grossRate <= 0 {
		return truth
	}
	var rs xrand.Stream
	rs.Reseed(xrand.DeriveSeedL1(db.seed, labelGeoDB, id))
	bearing := rs.Float64() * 360
	var dist units.Kilometers
	if rs.Bool(db.grossRate) {
		dist = units.Kilometers(rs.Exp(db.grossKm.Float()))
	} else {
		// Lognormal with median medianErrKm and moderate spread.
		dist = units.Kilometers(db.medianErrKm.Float() * rs.LogNormal(0, 0.75))
	}
	o := NewOrigin(truth)
	return o.Offset(dist, bearing)
}
