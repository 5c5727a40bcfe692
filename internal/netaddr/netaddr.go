// Package netaddr provides compact /24 prefix identifiers and synthetic
// IPv4 address allocation for the simulator.
//
// The paper aggregates all client measurements by /24 prefix "because they
// tend to be localized" (citing Freedman et al.), so the /24 is the unit of
// identity for clients throughout the system. Front-end unicast prefixes
// are also /24s, mirroring §3.1 of the paper.
package netaddr

import "fmt"

// Prefix24 identifies an IPv4 /24 by its 24 network bits. The zero value is
// 0.0.0.0/24.
type Prefix24 uint32

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

// The synthetic address pools. The addresses are simulation-only labels —
// nothing is ever bound or routed — so the pools need only be disjoint,
// and a /24 is arithmetic on its index: any client's prefix is known
// without walking the clients before it.
//
// The client pool starts in 10.0.0.0/8 (65,536 /24s), continues into
// 16.0.0.0/4 (1,048,576 more) for paper-scale populations, and then into
// 64.0.0.0/2 (4,194,304 more) for the distributed multi-process runs that
// shard a world several times the single-process ceiling. The ranges are
// chained in that fixed order, so growing the pool never changes which
// prefix an existing client index receives. The front-end pool is
// 198.18.0.0/15 (benchmarking), and AnycastPrefix is the single
// well-known anycast /24 192.0.2.0/24.
const (
	// ClientPrefixes is the number of client /24s: 5,308,416.
	ClientPrefixes = 1<<16 + 1<<20 + 4<<20
	// FrontEndPrefixes is the number of front-end /24s.
	FrontEndPrefixes = 512
)

// ClientPrefix returns the /24 of client index i. ok is false outside
// [0, ClientPrefixes).
func ClientPrefix(i int) (p Prefix24, ok bool) {
	switch {
	case i < 0 || i >= ClientPrefixes:
		return 0, false
	case i < 1<<16: // 10.0.0.0/8
		return Prefix24(10<<16 + i), true
	case i < 1<<16+1<<20: // 16.0.0.0/4
		return Prefix24(16<<16 + i - 1<<16), true
	}
	return Prefix24(64<<16 + i - 1<<16 - 1<<20), true // 64.0.0.0/2
}

// FrontEndPrefix returns the unicast /24 of front-end index i. ok is false
// outside [0, FrontEndPrefixes).
func FrontEndPrefix(i int) (p Prefix24, ok bool) {
	if i < 0 || i >= FrontEndPrefixes {
		return 0, false
	}
	return Prefix24(198<<16 + 18<<8 + i), true // 198.18.0.0/15
}

// AnycastPrefix is the /24 the anycast service address is announced from
// at every front-end location, mirroring the production anycast prefix of
// §3.1.
var AnycastPrefix = FromOctets(192, 0, 2)
