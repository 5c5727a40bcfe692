package sim_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"anycastcdn/internal/clients"
	"anycastcdn/internal/dns"
	"anycastcdn/internal/geo"
	"anycastcdn/internal/netaddr"
	"anycastcdn/internal/sim"
	"anycastcdn/internal/testutil"
	"anycastcdn/internal/topology"
	"anycastcdn/internal/units"
	"anycastcdn/internal/xrand"
)

// referenceLabelClient is the label of a client's own substream.
var referenceLabelClient = xrand.NewLabel("client")

// referenceGenerate is the world build's client walk as one serial loop
// that draws everything for every client — the scatter and volume
// lognormals, the bearing and the ISP, each metro's ISP list looked up by
// country per client — and hands each client, in ID order, to observe.
// Only the clients of [lo, hi) are kept.
func referenceGenerate(metros []geo.Metro, isps *topology.ISPModel, cfg clients.Config, lo, hi int, observe func(clients.Client)) ([]clients.Client, error) {
	weights := make([]float64, len(metros))
	for i, m := range metros {
		weights[i] = m.Weight
	}
	pick, ok := xrand.NewPicker(weights)
	if !ok {
		return nil, fmt.Errorf("no metro weights")
	}
	picker := xrand.Substream(cfg.Seed, "clients-metro")
	out := make([]clients.Client, 0, hi-lo)
	var rs xrand.Stream
	for i := 0; i < cfg.N; i++ {
		prefix, ok := netaddr.ClientPrefix(i)
		if !ok {
			return nil, fmt.Errorf("address pool exhausted at %d clients", i)
		}
		m := &metros[pick.Pick(picker)]
		rs.Reseed(xrand.DeriveSeedL1(cfg.Seed, referenceLabelClient, uint64(i)))
		scatter := units.Kilometers(cfg.ScatterMedianKm.Float() * rs.LogNormal(0, 0.8))
		o := geo.NewOrigin(m.Point)
		point := o.Offset(scatter, rs.Float64()*360)
		ispIDs := isps.ForCountry(m.Country)
		if len(ispIDs) == 0 {
			return nil, fmt.Errorf("country %q has no ISPs", m.Country)
		}
		c := clients.Client{
			ID:      uint64(i),
			Prefix:  prefix,
			Point:   point,
			Metro:   m.Name,
			Region:  m.Region,
			Country: m.Country,
			ISP:     ispIDs[rs.Intn(len(ispIDs))],
			Volume:  rs.LogNormal(0, cfg.VolumeSigma),
		}
		observe(c)
		if i >= lo && i < hi {
			out = append(out, c)
		}
	}
	return out, nil
}

// referenceMapping maps clients one at a time in ID order, as the mapper
// did before resolver keys: each client draws its resolver from a heap
// substream, formats the resolver's name, places it and interns it by
// name.
type referenceMapping struct {
	cfg         dns.MapperConfig
	isps        *topology.ISPModel
	metros      []geo.Metro
	metroByName map[string]geo.Metro
	public      []dns.LDNS
	publicSet   *geo.PointSet
	index       map[string]dns.LDNSID
	resolvers   []dns.LDNS
	assign      []dns.LDNSID
}

func newReferenceMapping(t *testing.T, isps *topology.ISPModel, metros []geo.Metro, cfg dns.MapperConfig) *referenceMapping {
	t.Helper()
	public, err := dns.PublicResolvers(metros, 0)
	if err != nil {
		t.Fatal(err)
	}
	pts := make([]geo.Point, len(public))
	for i, l := range public {
		pts[i] = l.Point
	}
	byName := map[string]geo.Metro{}
	for _, m := range metros {
		byName[m.Name] = m
	}
	return &referenceMapping{cfg: cfg, isps: isps, metros: metros, metroByName: byName,
		public: public, publicSet: geo.NewPointSet(pts), index: map[string]dns.LDNSID{}}
}

func (r *referenceMapping) observe(c clients.Client) {
	rs := xrand.Substream(r.cfg.Seed, "ldns", c.ID)
	var name string
	var kind dns.LDNSKind
	var pt geo.Point
	switch {
	case rs.Bool(r.cfg.PublicFrac):
		pi, _ := r.publicSet.Nearest(c.Point)
		name = "public-" + strings.TrimPrefix(r.public[pi].Name, "fallback-public-")
		kind, pt = dns.Public, r.public[pi].Point
	case rs.Bool(r.cfg.HubFrac):
		isp := r.isps.ISP(c.ISP)
		var hub geo.Metro
		for _, m := range r.metros {
			if m.Country == isp.Country && m.Weight > hub.Weight {
				hub = m
			}
		}
		name = fmt.Sprintf("%s-hub", isp.Name)
		kind, pt = dns.ISPHub, hub.Point
	default:
		isp := r.isps.ISP(c.ISP)
		name = fmt.Sprintf("%s-%s", isp.Name, c.Metro)
		kind, pt = dns.ISPLocal, r.metroByName[c.Metro].Point
	}
	id, ok := r.index[name]
	if !ok {
		id = dns.LDNSID(len(r.resolvers))
		r.resolvers = append(r.resolvers, dns.LDNS{ID: id, Name: name, Kind: kind, Point: pt})
		r.index[name] = id
	}
	r.assign = append(r.assign, id)
}

// TestBuildMatchesReferenceWalk pins the block walk as exact: for two
// seeds, the world's own resolver mix, and 1, 2, 3 and 8 workers,
// BuildWorld and BuildShardWorld over ranges that start at 0, lie inside
// one block, cross two block edges and end at the population size hold
// the clients, resolver catalog and assignments of the serial reference
// walk. The reference catalog must hold a resolver of every kind, so the
// walk reaches each branch of the resolver key.
func TestBuildMatchesReferenceWalk(t *testing.T) {
	const n = 3*clients.BlockSize + 1234
	ranges := [][2]int{
		{0, n},
		{0, 1},
		{clients.BlockSize + 100, clients.BlockSize + 5000},
		{clients.BlockSize - 192, 2*clients.BlockSize + 116},
		{2*clients.BlockSize + 3000, n},
	}
	workers := []int{1, 2, 3, 8}
	if raceEnabled {
		// Instrumented walks are several times slower; one serial and
		// one oversubscribed pool still race-check the parallel step.
		workers = []int{1, 3}
	}
	for _, seed := range []uint64{1, 23} {
		cfg := testutil.TinyConfig(seed)
		cfg.Prefixes = n
		comps, err := sim.BuildAnalysisWorld(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ref := newReferenceMapping(t, comps.ISPs, comps.Metros, dns.DefaultMapperConfig(xrand.DeriveSeed(seed, "ldns")))
		all, err := referenceGenerate(comps.Metros, comps.ISPs,
			clients.DefaultConfig(xrand.DeriveSeed(seed, "clients"), n), 0, n, ref.observe)
		if err != nil {
			t.Fatal(err)
		}
		kinds := map[dns.LDNSKind]int{}
		for _, l := range ref.resolvers {
			kinds[l.Kind]++
		}
		for _, k := range []dns.LDNSKind{dns.Public, dns.ISPHub, dns.ISPLocal} {
			if kinds[k] == 0 {
				t.Fatalf("seed %d: the reference catalog holds no %s resolver (%v)", seed, k, kinds)
			}
		}
		for _, wk := range workers {
			cfg.Workers = wk
			for _, r := range ranges {
				lo, hi := r[0], r[1]
				var w *sim.World
				if lo == 0 && hi == n {
					w, err = sim.BuildWorld(cfg)
				} else {
					w, err = sim.BuildShardWorld(cfg, lo, hi)
				}
				if err != nil {
					t.Fatal(err)
				}
				at := fmt.Sprintf("seed %d, %d workers, range [%d, %d)", seed, wk, lo, hi)
				if p := w.Population; p.Base != uint64(lo) || !reflect.DeepEqual(p.Clients, all[lo:hi]) {
					t.Fatalf("%s: clients differ from the reference walk's", at)
				}
				if m := w.Mapping; !reflect.DeepEqual(m.Resolvers, ref.resolvers) {
					t.Fatalf("%s: resolver catalog differs from the reference's (%d vs %d resolvers)", at, len(m.Resolvers), len(ref.resolvers))
				}
				if m := w.Mapping; m.Base != uint64(lo) || !reflect.DeepEqual(m.ClientLDNS, ref.assign[lo:hi]) {
					t.Fatalf("%s: client assignments differ from the reference's", at)
				}
			}
		}
	}
}
