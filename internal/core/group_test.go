package core

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
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
// of each group's targets, and of every bucket.
func groupReference(obs []Observation, g Grouping) []ClientSamples {
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
			slices.Sort(ts[j].RTTs)
		}
	}
	return groups
}

// sameGrouping reports how got differs from the reference want, "" if it
// does not: the same groups and targets, each bucket equal to want's
// position by position (a NaN matching a NaN) and, bit for bit, the same
// multiset. Sorts may order -0 and +0, and NaNs among themselves, either
// way.
func sameGrouping(got, want []ClientSamples) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d groups, want %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.ClientID != w.ClientID || g.LDNS != w.LDNS || g.Closest != w.Closest || len(g.Targets) != len(w.Targets) {
			return fmt.Sprintf("group %d is {%d %d %v, %d targets}, want {%d %d %v, %d targets}",
				i, g.ClientID, g.LDNS, g.Closest, len(g.Targets), w.ClientID, w.LDNS, w.Closest, len(w.Targets))
		}
		for j := range w.Targets {
			gt, wt := g.Targets[j], w.Targets[j]
			if gt.Target != wt.Target || len(gt.RTTs) != len(wt.RTTs) {
				return fmt.Sprintf("group %d target %d is %v with %d samples, want %v with %d",
					g.ClientID, j, gt.Target, len(gt.RTTs), wt.Target, len(wt.RTTs))
			}
			gb, wb := make([]uint64, len(gt.RTTs)), make([]uint64, len(wt.RTTs))
			for k, x := range wt.RTTs {
				y := gt.RTTs[k]
				if x != y && !(math.IsNaN(float64(x)) && math.IsNaN(float64(y))) {
					return fmt.Sprintf("group %d target %v sample %d is %v, want %v", g.ClientID, wt.Target, k, y, x)
				}
				gb[k], wb[k] = math.Float64bits(float64(y)), math.Float64bits(float64(x))
			}
			slices.Sort(gb)
			slices.Sort(wb)
			if !slices.Equal(gb, wb) {
				return fmt.Sprintf("group %d target %v holds other sample bits than the reference", g.ClientID, wt.Target)
			}
		}
	}
	return ""
}

// appendBeacon appends one beacon of client c: anycast (slot 0), its
// resolver's closest front-end (slot 1) and two more of the resolver's
// candidates, one of the nearest three (slot 2) and one of the nearest
// six (slot 3), each RTT drawn by rtt. Every fifth client uses one of
// five public resolvers; the rest share a resolver with about three
// others.
func appendBeacon(obs []Observation, rs *xrand.Stream, c uint64, rtt func() units.Millis) []Observation {
	ldns := dns.LDNSID(c / 4)
	if c%5 == 0 {
		ldns = dns.LDNSID(1_000_000 + c%25/5)
	}
	site := func(r int) Target {
		return Target{Site: topology.SiteID((int(ldns)*7 + r*13) % 70)}
	}
	return append(obs,
		Observation{ClientID: c, LDNS: ldns, Target: AnycastTarget, RTTms: rtt(), Slot: 0},
		Observation{ClientID: c, LDNS: ldns, Target: site(0), RTTms: rtt(), Slot: 1},
		Observation{ClientID: c, LDNS: ldns, Target: site(1 + rs.Intn(3)), RTTms: rtt(), Slot: 2},
		Observation{ClientID: c, LDNS: ldns, Target: site(1 + rs.Intn(6)), RTTms: rtt(), Slot: 3},
	)
}

// beaconDay builds one synthetic day of beacon observations (appendBeacon)
// of random clients in random order. RTTs are rounded to 0.1 ms, so
// buckets hold ties.
func beaconDay(seed uint64, clients, beacons int) []Observation {
	rs := xrand.New(seed)
	rtt := func() units.Millis { return units.Millis(math.Round(10*(5+rs.Float64()*150)) / 10) }
	obs := make([]Observation, 0, 4*beacons)
	for range beacons {
		obs = appendBeacon(obs, rs, uint64(rs.Intn(clients)), rtt)
	}
	return obs
}

// clientDay builds one synthetic day shaped like the fold's input, a
// sim.DayResult's beacons: beacons of random clients (appendBeacon), with
// the clients in ascending order, each client's beacons contiguous, and
// RTTs whole milliseconds in [2, 925].
func clientDay(seed uint64, clients, beacons int) []Observation {
	rs := xrand.New(seed)
	perClient := make([]int, clients)
	for range beacons {
		perClient[rs.Intn(clients)]++
	}
	rtt := func() units.Millis { return units.Millis(2 + rs.Intn(924)) }
	obs := make([]Observation, 0, 4*beacons)
	for c, n := range perClient {
		for range n {
			obs = appendBeacon(obs, rs, uint64(c), rtt)
		}
	}
	return obs
}

// sizedDay builds a day whose ByPrefix buckets have the given sizes, in
// order: client i sends sizes[i] anycast observations, and clients
// 2i and 2i+1 share a resolver. RTTs are uniform in [0, 1000) ms at full
// precision.
func sizedDay(seed uint64, sizes ...int) []Observation {
	rs := xrand.New(seed)
	var obs []Observation
	for c, n := range sizes {
		for range n {
			obs = append(obs, Observation{ClientID: uint64(c), LDNS: dns.LDNSID(c / 2), Target: AnycastTarget, RTTms: units.Millis(1000 * rs.Float64())})
		}
	}
	return obs
}

// withRTTs returns a copy of obs with the i'th RTT replaced by rtt(i).
func withRTTs(obs []Observation, rtt func(i int) units.Millis) []Observation {
	out := slices.Clone(obs)
	for i := range out {
		out[i].RTTms = rtt(i)
	}
	return out
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
// ByPrefix and ByLDNS. The days shrink and grow, include an empty one,
// interleave their clients out of order, drop groups and targets and
// bring them back, and hold buckets of 19, 20 and 21 samples. For the
// radix sort they add a day in the fold's own order with whole-ms RTTs,
// a bucket larger than a sort chunk, chunks ending exactly after buckets
// of 1, 2 and 92 samples, RTTs all equal (no key byte varies), and RTTs
// of random bits that differ in every byte, with negatives, both zeros
// and NaNs.
func TestGrouperMatchesReference(t *testing.T) {
	big := shuffled(synthObs(120, 22), 1) // buckets straddle 20 under both groupings
	var narrow []Observation              // two targets only, every other client gone
	for _, o := range big {
		if o.ClientID%2 == 0 && (o.Target.Anycast || o.Target.Site == 2) {
			narrow = append(narrow, o)
		}
	}
	boundaries := []int{sortChunk - 1, 1, sortChunk - 2, 2}
	for range 81 {
		boundaries = append(boundaries, 100)
	}
	boundaries = append(boundaries, 92, 5000, 5000, 3)
	bits := xrand.New(8)
	signed := []units.Millis{units.Millis(math.Copysign(0, -1)), 0, -1, 1, units.Millis(math.NaN()), units.Millis(math.Inf(-1)), units.Millis(math.Inf(1))}
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
		{"in client order, whole ms", clientDay(5, 1900, 31_000)},
		{"a bucket above the chunk", sizedDay(6, 10, sortChunk+500, 7, 3000, sortChunk+1, 3000)},
		{"chunks ending after buckets of 1, 2 and 92", sizedDay(7, boundaries...)},
		{"all RTTs equal", withRTTs(clientDay(8, 300, 3000), func(int) units.Millis { return 42 })},
		{"RTTs differ in every byte", withRTTs(beaconDay(9, 200, 3000), func(i int) units.Millis {
			if i%10 == 0 {
				return signed[i/10%len(signed)]
			}
			return units.Millis(math.Float64frombits(bits.Uint64()))
		})},
	}
	for _, g := range []Grouping{ByPrefix, ByLDNS} {
		sizes := map[int]bool{}
		for _, c := range groupReference(big, g) {
			for _, ts := range c.Targets {
				sizes[len(ts.RTTs)] = true
			}
		}
		if !sizes[19] || !sizes[20] || !sizes[21] {
			t.Fatalf("grouping %v: the large day lacks a bucket of 19, 20 or 21 samples", g)
		}
	}
	var gr Grouper
	for _, d := range days {
		for _, g := range []Grouping{ByPrefix, ByLDNS} {
			got := gr.Group(d.obs, g)
			if diff := sameGrouping(got, groupReference(d.obs, g)); diff != "" {
				t.Fatalf("day %q, %v: Grouper disagrees with the reference: %s", d.name, g, diff)
			}
			for _, c := range got {
				if cap(c.Targets) != len(c.Targets) {
					t.Fatalf("day %q, %v: group %d Targets has cap %d > len %d", d.name, g, c.ClientID, cap(c.Targets), len(c.Targets))
				}
				for _, ts := range c.Targets {
					if cap(ts.RTTs) != len(ts.RTTs) {
						t.Fatalf("day %q, %v: group %d target %v RTTs has cap %d > len %d", d.name, g, c.ClientID, ts.Target, cap(ts.RTTs), len(ts.RTTs))
					}
				}
			}
		}
	}
}

// FuzzGrouper decodes a day of observations from raw bytes, 11 to an
// observation: a client, a resolver and a target byte, then the RTT's 64
// bits. It checks one Grouper against the reference under ByPrefix, then
// ByLDNS, then ByPrefix again. Clients, resolvers and sites come from
// small ranges so that groups and buckets repeat, and the sites run past
// 63, so that two targets share a memo slot.
func FuzzGrouper(f *testing.F) {
	encode := func(obs []Observation) []byte {
		var b []byte
		for _, o := range obs {
			tb := byte(0xff)
			if !o.Target.Anycast {
				tb = byte(o.Target.Site)
			}
			b = append(b, byte(o.ClientID), byte(o.LDNS), tb)
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(float64(o.RTTms)))
		}
		return b
	}
	f.Add(encode(clientDay(1, 6, 30)))
	f.Add(encode(beaconDay(2, 6, 30)))
	f.Add(encode([]Observation{
		{ClientID: 1, Target: AnycastTarget, RTTms: units.Millis(math.NaN())},
		{ClientID: 1, Target: Target{Site: 63}, RTTms: units.Millis(math.Copysign(0, -1))},
		{ClientID: 2, Target: AnycastTarget, RTTms: 0},
		{ClientID: 1, Target: AnycastTarget, RTTms: -3},
		{ClientID: 1, Target: Target{Site: 63}, RTTms: 7},
	}))
	f.Fuzz(func(t *testing.T, data []byte) {
		var obs []Observation
		for ; len(data) >= 11; data = data[11:] {
			target := AnycastTarget
			if tb := data[2]; tb < 0xf0 {
				target = Target{Site: topology.SiteID(tb % 72)}
			}
			obs = append(obs, Observation{
				ClientID: uint64(data[0] % 16),
				LDNS:     dns.LDNSID(data[1] % 8),
				Target:   target,
				RTTms:    units.Millis(math.Float64frombits(binary.LittleEndian.Uint64(data[3:]))),
				Slot:     data[2] % 4,
			})
		}
		var gr Grouper
		for _, g := range []Grouping{ByPrefix, ByLDNS, ByPrefix} {
			if diff := sameGrouping(gr.Group(obs, g), groupReference(obs, g)); diff != "" {
				t.Fatalf("%d observations, %v: Grouper disagrees with the reference: %s", len(obs), g, diff)
			}
		}
	})
}

// TestGrouperSteadyStateZeroAlloc pins the Grouper's reuse: once it has
// grouped a day, regrouping a day of that size allocates nothing under
// either grouping.
func TestGrouperSteadyStateZeroAlloc(t *testing.T) {
	obs := beaconDay(1, 1900, 31_000)
	var gr Grouper
	if n := testing.AllocsPerRun(5, func() {
		gr.Group(obs, ByPrefix)
		gr.Group(obs, ByLDNS)
	}); n != 0 {
		t.Fatalf("a warmed Grouper allocates %.0f times per day, want 0", n)
	}
}

// BenchmarkGrouper times one warmed Grouper regrouping a day the size of
// a beacon-figures day (~1.9k clients, ~124k observations) per client
// and per resolver. Its clients come in random order and its RTTs in
// tenths of a millisecond (beaconDay).
func BenchmarkGrouper(b *testing.B) {
	benchmarkGrouper(b, beaconDay(1, 1900, 31_000))
}

// BenchmarkGrouperClientOrder is BenchmarkGrouper over a day shaped like
// the fold's: clients ascending, each client's beacons together, RTTs in
// whole milliseconds (clientDay).
func BenchmarkGrouperClientOrder(b *testing.B) {
	benchmarkGrouper(b, clientDay(1, 1900, 31_000))
}

func benchmarkGrouper(b *testing.B, obs []Observation) {
	var gr Grouper
	gr.Group(obs, ByPrefix)
	gr.Group(obs, ByLDNS)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gr.Group(obs, ByPrefix)
		gr.Group(obs, ByLDNS)
	}
}
