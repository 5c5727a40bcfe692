package dns

import (
	"fmt"
	"reflect"
	"testing"

	"anycastcdn/internal/cdn"
	"anycastcdn/internal/clients"
	"anycastcdn/internal/geo"
	"anycastcdn/internal/topology"
	"anycastcdn/internal/xrand"
)

// referenceMapper is RangeMapper as it was before resolver IDs were
// cached by key: every client formats its resolver's name, searches the
// hub metro and interns by name, from a heap substream.
type referenceMapper struct {
	rm *RangeMapper
}

func (r referenceMapper) observe(c clients.Client) {
	rm := r.rm
	rs := xrand.Substream(rm.cfg.Seed, "ldns", c.ID)
	var id LDNSID
	switch {
	case rs.Bool(rm.cfg.PublicFrac):
		pi, _ := rm.publicSet.Nearest(c.Point)
		name := "public-" + publicResolverMetros[pi]
		id = rm.intern(name, Public, rm.publicPts[pi])
	case rs.Bool(rm.cfg.HubFrac):
		isp := rm.isps.ISP(c.ISP)
		hub := heaviestMetroOfCountry(rm.metros, isp.Country)
		name := fmt.Sprintf("%s-hub", isp.Name)
		id = rm.intern(name, ISPHub, hub.Point)
	default:
		m := rm.metroByName[c.Metro]
		isp := rm.isps.ISP(c.ISP)
		name := fmt.Sprintf("%s-%s", isp.Name, c.Metro)
		id = rm.intern(name, ISPLocal, m.Point)
	}
	if c.ID >= rm.lo && c.ID < rm.hi {
		rm.mp.ClientLDNS[c.ID-rm.lo] = id
	}
}

// TestRangeMapperMatchesReference feeds a 20k population through the
// keyed mapper and the reference, over the full range and over a shard:
// the resolver catalogs (names, kinds, points and IDs) and every stored
// assignment must be identical.
func TestRangeMapperMatchesReference(t *testing.T) {
	dep, err := cdn.BuildDefault()
	if err != nil {
		t.Fatal(err)
	}
	metros := geo.World()
	isps := topology.BuildISPs(dep.Backbone, metros, topology.DefaultISPModelConfig(5))
	const n = 20_000
	pop, err := clients.Generate(metros, isps, clients.DefaultConfig(6, n))
	if err != nil {
		t.Fatal(err)
	}
	// A raised hub share makes hub resolvers common enough that many
	// ISPs meet theirs late in the walk.
	for _, cfg := range []MapperConfig{DefaultMapperConfig(7), {Seed: 8, PublicFrac: 0.2, HubFrac: 0.4}} {
		for _, r := range [][2]uint64{{0, n}, {6_000, 13_500}} {
			got, err := NewRangeMapper(isps, metros, cfg, r[0], r[1])
			if err != nil {
				t.Fatal(err)
			}
			ref, err := NewRangeMapper(isps, metros, cfg, r[0], r[1])
			if err != nil {
				t.Fatal(err)
			}
			for i := range pop.Clients {
				got.Observe(&pop.Clients[i])
				referenceMapper{ref}.observe(pop.Clients[i])
			}
			g, w := got.Mapping(), ref.Mapping()
			if len(w.Resolvers) < 100 {
				t.Fatalf("only %d resolvers: the population is too small to test interning", len(w.Resolvers))
			}
			if !reflect.DeepEqual(g.Resolvers, w.Resolvers) {
				t.Fatalf("config %+v range %v: resolver catalogs differ (%d vs %d resolvers)", cfg, r, len(g.Resolvers), len(w.Resolvers))
			}
			if !reflect.DeepEqual(g.ClientLDNS, w.ClientLDNS) || g.Base != w.Base {
				t.Fatalf("config %+v range %v: client assignments differ", cfg, r)
			}
		}
	}
}
