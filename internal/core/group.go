package core

import (
	"cmp"
	"math"
	"slices"

	"anycastcdn/internal/dns"
	"anycastcdn/internal/units"
)

// Grouper groups an interval's observations per group and target, in
// storage it keeps for the next call: a caller that groups every day of
// a month allocates only when a day outgrows every day before it. The
// zero value is ready to use.
type Grouper struct {
	index map[uint64]int32      // group key → its slot in heads
	heads []groupHead           // the groups, in first-seen order until sorted
	bks   []groupBucket         // the (group, target) buckets, in first-seen order
	of    []int32               // of[i] is observation i's bucket
	memo  [memoSlots]bucketMemo // per target, the bucket it last went to

	groups  []ClientSamples
	targets []TargetSamples // every group's targets, back to back
	arena   []units.Millis  // every bucket's RTTs, back to back

	// The radix sort's scratch: two key buffers and each bucket's next
	// free slot, sized to the largest chunk yet.
	keys, tmp []sortEntry
	next      []int32
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

// memoSlots is the size of the bucket memo: anycast takes slot 0 and
// site s slot (s+1) mod memoSlots, so a deployment of up to 63 sites
// gives every target a slot of its own.
const memoSlots = 64

// bucketMemo is the (group, bucket) a target last went to.
type bucketMemo struct {
	target        Target
	group, bucket int32 // group is -1 while the slot is empty
}

// Group groups obs under g, then per target: groups in ascending key
// order, each group's targets in compareTargets order, and every bucket
// sorted ascending (NaNs first, as slices.Sort orders them). Under ByLDNS
// each entry is one resolver's group and its ClientID holds the resolver
// ID. LDNS and Closest come from the group's last observation, and
// Closest is AnycastTarget if no observation had slot 1.
//
// It counts each bucket in one pass over obs, lays the buckets out in
// output order in one RTT arena, scatters the RTTs into it in input
// order, and sorts the arena's buckets a chunk at a time (sortBuckets).
// The result, every slice in it included, is valid until the next call;
// each Targets and RTTs slice has cap == len, so appending to one
// reallocates rather than write into its neighbour.
//
//perf:hotpath
func (gr *Grouper) Group(obs []Observation, g Grouping) []ClientSamples {
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
	for i := range gr.memo {
		gr.memo[i].group = -1
	}
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
		gr.of[i] = gr.bucket(cur, o.Target)
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
	gr.sortBuckets()
	return gr.groups
}

// bucket counts one observation of t in group g and returns its bucket,
// inserting a new bucket at t's place in g's list on first sight. A
// group sees a handful of targets (anycast plus its LDNS's candidate
// front-ends), so walking the ordered list beats hashing a composite
// (group, target) key per observation, and it stops at t's place. A
// client's beacons arrive together, so t's memo slot usually names g's
// bucket for t already, and then the walk is skipped.
//
//perf:hotpath
func (gr *Grouper) bucket(g int32, t Target) int32 {
	m := &gr.memo[0]
	if !t.Anycast {
		m = &gr.memo[(int(t.Site)+1)&(memoSlots-1)]
	}
	if m.group == g && m.target == t {
		gr.bks[m.bucket].n++
		return m.bucket
	}
	h := &gr.heads[g]
	prev, b := int32(-1), h.first
	for b >= 0 && compareTargets(gr.bks[b].target, t) < 0 {
		prev, b = b, gr.bks[b].next
	}
	if b >= 0 && gr.bks[b].target == t {
		gr.bks[b].n++
	} else {
		nb := int32(len(gr.bks))
		// Grows only while a call holds more buckets than any before it.
		gr.bks = append(gr.bks, groupBucket{target: t, n: 1, next: b})
		if prev < 0 {
			h.first = nb
		} else {
			gr.bks[prev].next = nb
		}
		b = nb
	}
	*m = bucketMemo{target: t, group: g, bucket: b}
	return b
}

// sortChunk is the most samples sortBuckets sorts in one radix pass
// unless a single bucket holds more: 8,192 16-byte entries in each of
// two buffers stay in L2.
const sortChunk = 8192

// sortEntry is one sample while its chunk is sorted: its order key and
// its bucket, counted from the chunk's first.
type sortEntry struct {
	key uint64
	b   int32
}

// nanFirst rotates the order keys so that the positive NaNs, whose keys
// lie above +Inf's, wrap around below the negative NaNs' keys: every NaN
// then sorts first, as slices.Sort puts them.
const nanFirst = 1<<52 - 1

// sortKey maps x to a key whose unsigned order is x's order: the bits of
// a negative x flipped, a non-negative x's sign bit set, then rotated by
// nanFirst. It orders -0 before +0, which compare equal.
func sortKey(x units.Millis) uint64 {
	k := math.Float64bits(float64(x))
	if k>>63 != 0 {
		k = ^k
	} else {
		k |= 1 << 63
	}
	return k + nanFirst
}

// fromSortKey inverts sortKey bit for bit.
func fromSortKey(k uint64) units.Millis {
	k -= nanFirst
	if k>>63 != 0 {
		k &^= 1 << 63
	} else {
		k = ^k
	}
	return units.Millis(math.Float64frombits(k))
}

// sortBuckets sorts every bucket of the arena ascending. It takes the
// buckets, which lie back to back in output order, in chunks of whole
// buckets of up to sortChunk samples (a larger bucket is a chunk of its
// own) and sorts each chunk by (bucket, RTT) with one LSD radix sort:
// one stable counting pass per byte in which the chunk's keys differ,
// least significant first, then one that puts each sample at its
// bucket's next free slot. Samples of equal keys are bit-identical, so
// each bucket comes out as slices.Sort leaves it but for the order of
// -0 and +0 and of NaNs among themselves.
//
//perf:hotpath
func (gr *Grouper) sortBuckets() {
	at := 0
	for i := 0; i < len(gr.targets); {
		j, n := i+1, len(gr.targets[i].RTTs)
		for j < len(gr.targets) && n+len(gr.targets[j].RTTs) <= sortChunk {
			n += len(gr.targets[j].RTTs)
			j++
		}
		if n > len(gr.keys) {
			// Grows only while a chunk is larger than any before it, and
			// then at once to the largest this arena can cut but for a
			// bucket above sortChunk.
			size := max(n, min(sortChunk, len(gr.arena)))
			gr.keys, gr.tmp = make([]sortEntry, size), make([]sortEntry, size)
			gr.next = make([]int32, size)
		}
		chunk := gr.targets[i:j]
		src, dst := gr.keys[:n], gr.tmp[:n]
		and, or := ^uint64(0), uint64(0)
		k := 0
		for b := range chunk {
			for _, x := range chunk[b].RTTs {
				key := sortKey(x)
				src[k] = sortEntry{key: key, b: int32(b)}
				and &= key
				or |= key
				k++
			}
		}
		if vary := and ^ or; vary != 0 {
			for shift := 0; shift < 64; shift += 8 {
				if byte(vary>>shift) == 0 {
					continue
				}
				var count [256]int32
				for _, e := range src {
					count[byte(e.key>>shift)]++
				}
				sum := int32(0)
				for d, c := range count {
					count[d] = sum
					sum += c
				}
				for _, e := range src {
					d := byte(e.key >> shift)
					dst[count[d]] = e
					count[d]++
				}
				src, dst = dst, src
			}
			next, off := gr.next[:len(chunk)], int32(at)
			for b := range chunk {
				next[b] = off
				off += int32(len(chunk[b].RTTs))
			}
			for _, e := range src {
				gr.arena[next[e.b]] = fromSortKey(e.key)
				next[e.b]++
			}
		}
		at += n
		i = j
	}
}
