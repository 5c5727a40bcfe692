package core

import (
	"cmp"
	"math"
	"reflect"
	"slices"
	"testing"

	"anycastcdn/internal/dns"
	"anycastcdn/internal/topology"
	"anycastcdn/internal/units"
	"anycastcdn/internal/xrand"
)

// groupReference is the append-based grouping Grouper replaced, kept as
// its oracle: a map from group key to a growing group, a linear scan for
// the target's bucket, one append per sample, then a sort of the groups,
// of each group's targets, and of every bucket of at least sortMin
// samples.
func groupReference(obs []Observation, g Grouping, sortMin int) []ClientSamples {
	var groups []ClientSamples
	index := make(map[uint64]int)
	for _, o := range obs {
		k := groupKey(o, g)
		i, ok := index[k]
		if !ok {
			i = len(groups)
			index[k] = i
			groups = append(groups, ClientSamples{ClientID: k, Closest: AnycastTarget})
		}
		c := &groups[i]
		c.LDNS = o.LDNS
		if o.Slot == 1 {
			c.Closest = o.Target
		}
		j := slices.IndexFunc(c.Targets, func(ts TargetSamples) bool { return ts.Target == o.Target })
		if j < 0 {
			j = len(c.Targets)
			c.Targets = append(c.Targets, TargetSamples{Target: o.Target})
		}
		c.Targets[j].RTTs = append(c.Targets[j].RTTs, o.RTTms)
	}
	slices.SortFunc(groups, func(a, b ClientSamples) int { return cmp.Compare(a.ClientID, b.ClientID) })
	for i := range groups {
		ts := groups[i].Targets
		slices.SortFunc(ts, func(a, b TargetSamples) int { return compareTargets(a.Target, b.Target) })
		for j := range ts {
			if len(ts[j].RTTs) >= sortMin {
				slices.Sort(ts[j].RTTs)
			}
		}
	}
	return groups
}

// beaconDay builds one synthetic day of beacon observations: each beacon
// of a random client expands to anycast (slot 0), its resolver's closest
// front-end (slot 1) and two more of the resolver's candidates, one of
// the nearest three (slot 2) and one of the nearest six (slot 3), in
// random client order. Every fifth client uses one of five
// public resolvers; the rest share a resolver with about three others.
// RTTs are rounded to 0.1 ms, so buckets hold ties.
func beaconDay(seed uint64, clients, beacons int) []Observation {
	rs := xrand.New(seed)
	resolver := func(c uint64) dns.LDNSID {
		if c%5 == 0 {
			return dns.LDNSID(1_000_000 + c%25/5)
		}
		return dns.LDNSID(c / 4)
	}
	site := func(ldns dns.LDNSID, r int) Target {
		return Target{Site: topology.SiteID((int(ldns)*7 + r*13) % 70)}
	}
	obs := make([]Observation, 0, 4*beacons)
	for range beacons {
		c := uint64(rs.Intn(clients))
		ldns := resolver(c)
		rtt := func() units.Millis { return units.Millis(math.Round(10*(5+rs.Float64()*150)) / 10) }
		obs = append(obs,
			Observation{ClientID: c, LDNS: ldns, Target: AnycastTarget, RTTms: rtt(), Slot: 0},
			Observation{ClientID: c, LDNS: ldns, Target: site(ldns, 0), RTTms: rtt(), Slot: 1},
			Observation{ClientID: c, LDNS: ldns, Target: site(ldns, 1+rs.Intn(3)), RTTms: rtt(), Slot: 2},
			Observation{ClientID: c, LDNS: ldns, Target: site(ldns, 1+rs.Intn(6)), RTTms: rtt(), Slot: 3},
		)
	}
	return obs
}

// shuffled returns a seeded permutation of obs.
func shuffled(obs []Observation, seed uint64) []Observation {
	out := slices.Clone(obs)
	rs := xrand.New(seed)
	for i := len(out) - 1; i > 0; i-- {
		j := rs.Intn(i + 1)
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// TestGrouperMatchesReference regroups a sequence of days with one
// Grouper and pins every result to the append-based reference under
// ByPrefix with every bucket sorted, ByLDNS at the paper's floor, and a
// sortMin above every bucket. The days shrink and grow, include an empty
// one, interleave their clients out of order, drop groups and targets
// and bring them back, and hold buckets of 19, 20 and 21 samples.
func TestGrouperMatchesReference(t *testing.T) {
	big := shuffled(synthObs(120, 22), 1) // buckets straddle 20 under both groupings
	var narrow []Observation              // two targets only, every other client gone
	for _, o := range big {
		if o.ClientID%2 == 0 && (o.Target.Anycast || o.Target.Site == 2) {
			narrow = append(narrow, o)
		}
	}
	days := []struct {
		name string
		obs  []Observation
	}{
		{"large", big},
		{"smaller, other clients", shuffled(synthObs(40, 12), 2)},
		{"empty", nil},
		{"beacons", beaconDay(3, 150, 2000)},
		{"larger still", beaconDay(4, 400, 9000)},
		{"narrow", narrow},
		{"large again", big},
	}
	for _, g := range []Grouping{ByPrefix, ByLDNS} {
		sizes := map[int]bool{}
		for _, c := range groupReference(big, g, 0) {
			for _, ts := range c.Targets {
				sizes[len(ts.RTTs)] = true
			}
		}
		if !sizes[19] || !sizes[20] || !sizes[21] {
			t.Fatalf("grouping %v: the large day lacks a bucket of 19, 20 or 21 samples", g)
		}
	}
	settings := []struct {
		g       Grouping
		sortMin int
	}{
		{ByPrefix, 0},
		{ByLDNS, 20},
		{ByPrefix, math.MaxInt},
	}
	var gr Grouper
	for _, d := range days {
		for _, s := range settings {
			got := gr.Group(d.obs, s.g, s.sortMin)
			if want := groupReference(d.obs, s.g, s.sortMin); !reflect.DeepEqual(got, want) {
				t.Fatalf("day %q, %v at sortMin %d: Grouper disagrees with the reference", d.name, s.g, s.sortMin)
			}
			for _, c := range got {
				if cap(c.Targets) != len(c.Targets) {
					t.Fatalf("day %q, %v: group %d Targets has cap %d > len %d", d.name, s.g, c.ClientID, cap(c.Targets), len(c.Targets))
				}
				for _, ts := range c.Targets {
					if cap(ts.RTTs) != len(ts.RTTs) {
						t.Fatalf("day %q, %v: group %d target %v RTTs has cap %d > len %d", d.name, s.g, c.ClientID, ts.Target, cap(ts.RTTs), len(ts.RTTs))
					}
				}
			}
		}
	}
}

// TestGrouperSteadyStateZeroAlloc pins the Grouper's reuse: once it has
// grouped a day, regrouping a day of that size allocates nothing under
// either grouping.
func TestGrouperSteadyStateZeroAlloc(t *testing.T) {
	obs := beaconDay(1, 1900, 31_000)
	var gr Grouper
	if n := testing.AllocsPerRun(5, func() {
		gr.Group(obs, ByPrefix, 0)
		gr.Group(obs, ByLDNS, 20)
	}); n != 0 {
		t.Fatalf("a warmed Grouper allocates %.0f times per day, want 0", n)
	}
}

// BenchmarkGrouper times one warmed Grouper regrouping a day the size of
// a beacon-figures day (~1.9k clients, ~124k observations) per client
// with every bucket sorted and per resolver at the paper's floor.
func BenchmarkGrouper(b *testing.B) {
	obs := beaconDay(1, 1900, 31_000)
	var gr Grouper
	gr.Group(obs, ByPrefix, 0)
	gr.Group(obs, ByLDNS, 20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gr.Group(obs, ByPrefix, 0)
		gr.Group(obs, ByLDNS, 20)
	}
}
