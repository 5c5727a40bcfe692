// Package netaddr provides compact /24 prefix identifiers and synthetic
// IPv4 address allocation for the simulator.
//
// The paper aggregates all client measurements by /24 prefix "because they
// tend to be localized" (citing Freedman et al.), so the /24 is the unit of
// identity for clients throughout the system. Front-end unicast prefixes
// are also /24s, mirroring §3.1 of the paper.
package netaddr

import (
	"fmt"
	"net/netip"
)

// Prefix24 identifies an IPv4 /24 by its 24 network bits. The zero value is
// 0.0.0.0/24.
type Prefix24 uint32

// ParsePrefix24 parses a dotted string like "192.0.2.0/24" (the host octet
// and mask are validated).
func ParsePrefix24(s string) (Prefix24, error) {
	p, err := netip.ParsePrefix(s)
	if err != nil {
		return 0, fmt.Errorf("netaddr: %w", err)
	}
	if !p.Addr().Is4() {
		return 0, fmt.Errorf("netaddr: %v is not IPv4", p)
	}
	if p.Bits() != 24 {
		return 0, fmt.Errorf("netaddr: %v is not a /24", p)
	}
	a4 := p.Addr().As4()
	return FromOctets(a4[0], a4[1], a4[2]), nil
}

// FromOctets builds a Prefix24 from the three network octets.
func FromOctets(a, b, c byte) Prefix24 {
	return Prefix24(uint32(a)<<16 | uint32(b)<<8 | uint32(c))
}

// Octets returns the three network octets.
func (p Prefix24) Octets() (a, b, c byte) {
	return byte(p >> 16), byte(p >> 8), byte(p)
}

func (p Prefix24) String() string {
	a, b, c := p.Octets()
	return fmt.Sprintf("%d.%d.%d.0/24", a, b, c)
}

// Allocator hands out non-overlapping synthetic /24s from a chain of
// ranges, so generated "client" and "front-end" prefixes can never collide
// with each other. The addresses are simulation-only labels — nothing is
// ever bound or routed — so the ranges only need to be mutually disjoint.
type Allocator struct {
	next   uint32 // offset within ranges[ri]
	ri     int
	ranges []addrRange
}

type addrRange struct {
	base uint32 // /24 index of the range start (addr >> 8)
	size uint32
}

// Pool identifies an address pool for an Allocator.
type Pool int

// Address pools. ClientPool starts in 10.0.0.0/8 (65,536 /24s), continues
// into 16.0.0.0/4 (1,048,576 more) for paper-scale populations, and then
// into 64.0.0.0/2 (4,194,304 more) for the distributed multi-process runs
// that shard a world several times the single-process ceiling — over five
// million client /24s in total. The ranges are chained in that fixed
// order, so growing the pool never changes which prefix an existing
// client index receives. FrontEndPool allocates from 198.18.0.0/15
// (benchmarking); AnycastPrefix is the single well-known anycast /24
// 192.0.2.0/24. All pools are disjoint.
const (
	ClientPool Pool = iota
	FrontEndPool
)

// NewAllocator returns an allocator over the given pool.
func NewAllocator(pool Pool) *Allocator {
	switch pool {
	case FrontEndPool:
		// 198.18.0.0/15 => 512 /24s, plenty for front-ends.
		return &Allocator{ranges: []addrRange{{base: uint32(198)<<16 | uint32(18)<<8, size: 512}}}
	default:
		return &Allocator{ranges: []addrRange{
			{base: uint32(10) << 16, size: 65536},   // 10.0.0.0/8
			{base: uint32(16) << 16, size: 1048576}, // 16.0.0.0/4
			{base: uint32(64) << 16, size: 4 << 20}, // 64.0.0.0/2
		}}
	}
}

// Next returns the next unallocated /24. ok is false when the pool is
// exhausted.
func (al *Allocator) Next() (Prefix24, bool) {
	for al.ri < len(al.ranges) && al.next >= al.ranges[al.ri].size {
		al.ri++
		al.next = 0
	}
	if al.ri >= len(al.ranges) {
		return 0, false
	}
	p := Prefix24(al.ranges[al.ri].base + al.next)
	al.next++
	return p, true
}

// Remaining returns how many /24s are left in the pool.
func (al *Allocator) Remaining() int {
	var n uint32
	for i := al.ri; i < len(al.ranges); i++ {
		n += al.ranges[i].size
		if i == al.ri {
			n -= al.next
		}
	}
	return int(n)
}

// AnycastPrefix is the /24 the anycast service address is announced from
// at every front-end location, mirroring the production anycast prefix of
// §3.1.
var AnycastPrefix = FromOctets(192, 0, 2)
