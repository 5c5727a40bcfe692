package netaddr

import (
	"fmt"
	"net/netip"
)

// Table is a longest-prefix-match routing table for IPv4 prefixes,
// implemented as a binary trie on the address bits: the lookup a router's
// FIB does conceptually, e.g. mapping an EDNS Client Subnet back to a
// simulated client /24.
//
// The zero value is an empty table. Table is not safe for concurrent
// mutation; concurrent lookups are safe after all inserts complete.
type Table[V any] struct {
	root *node[V]
	size int
}

type node[V any] struct {
	children [2]*node[V]
	hasValue bool
	value    V
}

// Insert associates value with the given IPv4 prefix, replacing any
// existing entry for exactly that prefix.
func (t *Table[V]) Insert(p netip.Prefix, value V) error {
	addr := p.Addr()
	if !addr.Is4() && !addr.Is4In6() {
		return fmt.Errorf("netaddr: table requires IPv4 prefixes, got %v", p)
	}
	bits := p.Bits()
	if bits < 0 || bits > 32 {
		return fmt.Errorf("netaddr: invalid prefix length %d", bits)
	}
	a4 := addr.Unmap().As4()
	key := uint32(a4[0])<<24 | uint32(a4[1])<<16 | uint32(a4[2])<<8 | uint32(a4[3])
	if t.root == nil {
		t.root = &node[V]{}
	}
	cur := t.root
	for i := 0; i < bits; i++ {
		b := (key >> (31 - i)) & 1
		if cur.children[b] == nil {
			cur.children[b] = &node[V]{}
		}
		cur = cur.children[b]
	}
	if !cur.hasValue {
		t.size++
	}
	cur.hasValue = true
	cur.value = value
	return nil
}

// Insert24 associates value with a /24.
func (t *Table[V]) Insert24(p Prefix24, value V) {
	// The /24 form is always valid; ignore the impossible error.
	_ = t.Insert(p.Prefix(), value)
}

// Lookup returns the value of the longest prefix containing addr.
func (t *Table[V]) Lookup(addr netip.Addr) (V, bool) {
	var zero V
	if t.root == nil {
		return zero, false
	}
	if !addr.Is4() && !addr.Is4In6() {
		return zero, false
	}
	a4 := addr.Unmap().As4()
	key := uint32(a4[0])<<24 | uint32(a4[1])<<16 | uint32(a4[2])<<8 | uint32(a4[3])
	cur := t.root
	best := zero
	found := false
	if cur.hasValue { // default route
		best, found = cur.value, true
	}
	for i := 0; i < 32; i++ {
		b := (key >> (31 - i)) & 1
		cur = cur.children[b]
		if cur == nil {
			break
		}
		if cur.hasValue {
			best, found = cur.value, true
		}
	}
	return best, found
}

// Len returns the number of distinct prefixes in the table.
func (t *Table[V]) Len() int { return t.size }
