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
// cached by key and keys were split from interning: every client, in ID
// order, draws its resolver from a heap substream, formats the
// resolver's name, searches the hub metro and interns by name.
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

// TestRangeMapperMatchesReference maps a 20k population — three blocks
// of the generator's walk — through the two-step mapper and the
// reference, over the full range and over a shard: the resolver catalogs
// (names, kinds, points and IDs) and every stored assignment must be
// identical.
func TestRangeMapperMatchesReference(t *testing.T) {
	dep, err := cdn.BuildDefault()
	if err != nil {
		t.Fatal(err)
	}
	metros := geo.World()
	isps := topology.BuildISPs(dep.Backbone, metros, topology.DefaultISPModelConfig(5))
	const n = 20_000
	popCfg := clients.DefaultConfig(6, n)
	pop, err := clients.Generate(metros, isps, popCfg)
	if err != nil {
		t.Fatal(err)
	}
	// A raised hub share makes hub resolvers common enough that many
	// ISPs meet theirs late in the walk; an all-public mapping keys every
	// client by its position, so every shard client outside the range is
	// placed from its kept draws.
	for _, cfg := range []MapperConfig{DefaultMapperConfig(7), {Seed: 8, PublicFrac: 0.2, HubFrac: 0.4}, {Seed: 9, PublicFrac: 1}} {
		for _, r := range [][2]uint64{{0, n}, {6_000, 13_500}} {
			g := mapPopulation(t, isps, metros, popCfg, cfg, r[0], r[1])
			ref, err := NewRangeMapper(isps, metros, cfg, r[0], r[1])
			if err != nil {
				t.Fatal(err)
			}
			for i := range pop.Clients {
				referenceMapper{ref}.observe(pop.Clients[i])
			}
			w := ref.Mapping()
			if cfg.PublicFrac < 1 && len(w.Resolvers) < 100 {
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
