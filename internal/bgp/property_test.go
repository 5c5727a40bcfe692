package bgp

import (
	"testing"
	"testing/quick"

	"anycastcdn/internal/geo"
	"anycastcdn/internal/topology"
)

// propWorld builds one backbone/ISP fixture shared across property tests.
func propWorld(t *testing.T) (*Router, *topology.Backbone) {
	t.Helper()
	b, isps := buildWorld(t)
	return NewRouter(b, isps, 99, DefaultConfig()), b
}

// clientAt places a synthetic client at a clamped lat/lon with a random
// ISP of the model.
func clientAt(r *Router, prefix uint64, lat, lon float64) Client {
	clampLat := func(v float64) float64 {
		if v < -60 {
			return -60
		}
		if v > 70 {
			return 70
		}
		return v
	}
	clampLon := func(v float64) float64 {
		if v < -180 {
			return -180
		}
		if v > 180 {
			return 180
		}
		return v
	}
	isp := topology.ISPID(prefix % uint64(r.isps.Len()))
	return Client{
		PrefixID: prefix,
		Point:    geo.Point{Lat: clampLat(lat), Lon: clampLon(lon)},
		ISP:      isp,
	}
}

func TestAssignmentInvariantsProperty(t *testing.T) {
	r, b := propWorld(t)
	f := func(prefix uint64, lat, lon float64) bool {
		c := clientAt(r, prefix, lat, lon)
		if !c.Point.Valid() {
			return true
		}
		ing := r.BaseIngress(c)
		// Ingress must be a peering site.
		if !b.Site(ing).Peering {
			return false
		}
		a := r.Assign(c, ing)
		// The serving site must be a front-end, the backbone distance
		// must equal the IGP metric from ingress, and the air distance
		// must be the great-circle to the ingress.
		if !b.Site(a.FrontEnd).FrontEnd {
			return false
		}
		if a.BackboneKm != b.IGPDistanceKm(ing, a.FrontEnd) {
			return false
		}
		want := geo.DistanceKm(c.Point, b.Site(ing).Metro.Point)
		return abs(a.AirKm.Float()-want.Float()) < 1e-9 && !a.Unicast
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestUnicastInvariantsProperty(t *testing.T) {
	r, b := propWorld(t)
	fes := b.FrontEnds()
	f := func(prefix uint64, lat, lon float64, feIdx uint8) bool {
		c := clientAt(r, prefix, lat, lon)
		if !c.Point.Valid() {
			return true
		}
		fe := fes[int(feIdx)%len(fes)]
		a := r.UnicastAssignment(c, fe)
		if a.FrontEnd != fe || a.Ingress != fe || !a.Unicast || a.BackboneKm != 0 {
			return false
		}
		// The unicast air distance can never be shorter than the direct
		// great-circle (single-interconnect detours only add distance).
		direct := geo.DistanceKm(c.Point, b.Site(fe).Metro.Point)
		return a.AirKm >= direct-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestScheduleSitesValidProperty(t *testing.T) {
	r, b := propWorld(t)
	f := func(prefix uint64, lat, lon float64) bool {
		c := clientAt(r, prefix, lat, lon)
		if !c.Point.Valid() {
			return true
		}
		// The reference schedule is the unpacked builder: the base
		// ingress, then on every SwitchedOnDay an alternative chosen from
		// a fresh peering ranking.
		ranked := b.RankPeeringByAir(c.Point)
		want := r.BaseIngress(c)
		for d, e := range r.IngressSchedule(c, 10) {
			switched := r.SwitchedOnDay(c, d)
			if switched {
				want = r.alternativeIngress(ranked, c, d, want)
			}
			if e.Switched() != switched || e.Ingress() != want {
				return false
			}
			a := r.Assign(c, e.Ingress())
			if !b.Site(a.Ingress).Peering || !b.Site(a.FrontEnd).FrontEnd {
				return false
			}
			if a.AirKm < 0 || a.BackboneKm < 0 {
				return false
			}
			if a != r.AssignAir(e.Ingress(), r.AirKm(c, e.Ingress())) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
