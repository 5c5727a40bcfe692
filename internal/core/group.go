package core

import (
	"cmp"
	"slices"

	"anycastcdn/internal/dns"
	"anycastcdn/internal/units"
)

// Grouper groups an interval's observations per group and target, in
// storage it keeps for the next call: a caller that groups every day of
// a month allocates only when a day outgrows every day before it. The
// zero value is ready to use.
type Grouper struct {
	index map[uint64]int32 // group key → its slot in heads
	heads []groupHead      // the groups, in first-seen order until sorted
	bks   []groupBucket    // the (group, target) buckets, in first-seen order
	of    []int32          // of[i] is observation i's bucket

	groups  []ClientSamples
	targets []TargetSamples // every group's targets, back to back
	arena   []units.Millis  // every bucket's RTTs, back to back
}

// groupHead is one group while its observations are counted.
type groupHead struct {
	key     uint64
	ldns    dns.LDNSID
	closest Target
	first   int32 // the group's first bucket in compareTargets order, -1 if none
}

// groupBucket is one (group, target) bucket while its observations are
// counted: its sample count, then the arena offset its next sample goes
// to. Each group's buckets form a list in compareTargets order.
type groupBucket struct {
	target Target
	n, at  int32
	next   int32 // the group's next bucket, -1 at its end
}

// Group groups obs under g, then per target: groups in ascending key
// order, each group's targets in compareTargets order, and every bucket
// of at least sortMin samples sorted ascending (the others keep input
// order). Under ByLDNS each entry is one resolver's group and its
// ClientID holds the resolver ID. LDNS and Closest come from the group's
// last observation, and Closest is AnycastTarget if no observation had
// slot 1.
//
// It counts each bucket in one pass over obs, lays the buckets out in
// output order in one RTT arena, and scatters the RTTs into it in input
// order. The result, every slice in it included, is valid until the
// next call; each Targets and RTTs slice has cap == len, so appending to
// one reallocates rather than write into its neighbour.
//
//perf:hotpath
func (gr *Grouper) Group(obs []Observation, g Grouping, sortMin int) []ClientSamples {
	if len(obs) == 0 {
		return nil
	}
	if gr.index == nil {
		// Once per Grouper: clear keeps the map's storage for later calls.
		gr.index = make(map[uint64]int32)
	}
	clear(gr.index)
	gr.heads, gr.bks = gr.heads[:0], gr.bks[:0]
	gr.of = slices.Grow(gr.of[:0], len(obs))[:len(obs)]
	// A beacon expands to four consecutive observations of one client, so
	// the previous group is usually the next one's too.
	cur := int32(-1)
	for i := range obs {
		o := &obs[i]
		k := groupKey(*o, g)
		if cur < 0 || gr.heads[cur].key != k {
			j, ok := gr.index[k]
			if !ok {
				j = int32(len(gr.heads))
				gr.index[k] = j
				// Grows only while a call holds more groups than any before it.
				gr.heads = append(gr.heads, groupHead{key: k, closest: AnycastTarget, first: -1})
			}
			cur = j
		}
		h := &gr.heads[cur]
		h.ldns = o.LDNS
		if o.Slot == 1 {
			h.closest = o.Target
		}
		gr.of[i] = gr.bucket(h, o.Target)
	}

	slices.SortFunc(gr.heads, func(a, b groupHead) int { return cmp.Compare(a.key, b.key) })
	gr.groups = slices.Grow(gr.groups[:0], len(gr.heads))[:len(gr.heads)]
	gr.targets = slices.Grow(gr.targets[:0], len(gr.bks))[:len(gr.bks)]
	gr.arena = slices.Grow(gr.arena[:0], len(obs))[:len(obs)]
	t, at := 0, int32(0)
	for i := range gr.heads {
		h := &gr.heads[i]
		first := t
		for b := h.first; b >= 0; b = gr.bks[b].next {
			bk := &gr.bks[b]
			bk.at = at
			gr.targets[t] = TargetSamples{Target: bk.target, RTTs: gr.arena[at : at+bk.n : at+bk.n]}
			at += bk.n
			t++
		}
		gr.groups[i] = ClientSamples{ClientID: h.key, LDNS: h.ldns, Closest: h.closest, Targets: gr.targets[first:t:t]}
	}
	for i := range obs {
		bk := &gr.bks[gr.of[i]]
		gr.arena[bk.at] = obs[i].RTTms
		bk.at++
	}
	for _, ts := range gr.targets {
		if len(ts.RTTs) >= sortMin {
			slices.Sort(ts.RTTs)
		}
	}
	return gr.groups
}

// bucket counts one observation of t in group h and returns its bucket,
// inserting a new bucket at t's place in h's list on first sight. A
// group sees a handful of targets (anycast plus its LDNS's candidate
// front-ends), so walking the ordered list beats hashing a composite
// (group, target) key per observation, and it stops at t's place.
//
//perf:hotpath
func (gr *Grouper) bucket(h *groupHead, t Target) int32 {
	prev, b := int32(-1), h.first
	for b >= 0 {
		c := compareTargets(gr.bks[b].target, t)
		if c == 0 {
			gr.bks[b].n++
			return b
		}
		if c > 0 {
			break
		}
		prev, b = b, gr.bks[b].next
	}
	nb := int32(len(gr.bks))
	// Grows only while a call holds more buckets than any before it.
	gr.bks = append(gr.bks, groupBucket{target: t, n: 1, next: b})
	if prev < 0 {
		h.first = nb
	} else {
		gr.bks[prev].next = nb
	}
	return nb
}
