package netaddr

import (
	"testing"
	"testing/quick"
)

func TestString(t *testing.T) {
	for _, tc := range []struct {
		p    Prefix24
		want string
	}{
		{FromOctets(198, 51, 100), "198.51.100.0/24"},
		{0, "0.0.0.0/24"},
		{FromOctets(255, 255, 255), "255.255.255.0/24"},
		{AnycastPrefix, "192.0.2.0/24"},
	} {
		if got := tc.p.String(); got != tc.want {
			t.Errorf("String() = %q, want %q", got, tc.want)
		}
	}
}

func TestOctetsRoundTrip(t *testing.T) {
	f := func(a, b, c byte) bool {
		p := FromOctets(a, b, c)
		x, y, z := p.Octets()
		return x == a && y == b && z == c
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// allocator is the sequential allocator the pools were first handed out
// by, kept as the oracle ClientPrefix and FrontEndPrefix must match: it
// walks its ranges in order, one /24 per Next.
type allocator struct {
	next   uint32 // offset within ranges[ri]
	ri     int
	ranges []struct{ base, size uint32 }
}

func newClientAllocator() *allocator {
	return &allocator{ranges: []struct{ base, size uint32 }{
		{base: uint32(10) << 16, size: 65536},   // 10.0.0.0/8
		{base: uint32(16) << 16, size: 1048576}, // 16.0.0.0/4
		{base: uint32(64) << 16, size: 4 << 20}, // 64.0.0.0/2
	}}
}

func newFrontEndAllocator() *allocator {
	// 198.18.0.0/15 => 512 /24s.
	return &allocator{ranges: []struct{ base, size uint32 }{{base: uint32(198)<<16 | uint32(18)<<8, size: 512}}}
}

func (al *allocator) Next() (Prefix24, bool) {
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

func TestAllocatorUnique(t *testing.T) {
	seen := map[Prefix24]bool{}
	for i := 0; i < 10000; i++ {
		p, ok := ClientPrefix(i)
		if !ok {
			t.Fatalf("pool exhausted at %d", i)
		}
		if seen[p] {
			t.Fatalf("duplicate allocation %v", p)
		}
		seen[p] = true
	}
}

// TestAllocatorPoolsDisjoint checks that no front-end /24 falls in a
// client range, and where each pool starts.
func TestAllocatorPoolsDisjoint(t *testing.T) {
	for i := 0; i < FrontEndPrefixes; i++ {
		fp, _ := FrontEndPrefix(i)
		if a, _, _ := fp.Octets(); a == 10 || (a >= 16 && a <= 31) || (a >= 64 && a <= 127) {
			t.Fatalf("front-end prefix %d (%v) lies in a client range", i, fp)
		}
	}
	cp, _ := ClientPrefix(0)
	if a, _, _ := cp.Octets(); a != 10 {
		t.Fatalf("client pool starts at %v, want 10.x", cp)
	}
	fp, _ := FrontEndPrefix(0)
	if a, b, _ := fp.Octets(); a != 198 || b != 18 {
		t.Fatalf("front-end pool starts at %v, want 198.18.x", fp)
	}
}

// TestAllocatorExhaustion pins FrontEndPrefix against the sequential
// allocator over the whole front-end pool and past both of its ends.
func TestAllocatorExhaustion(t *testing.T) {
	al := newFrontEndAllocator()
	for i := 0; i <= FrontEndPrefixes; i++ {
		want, wantOK := al.Next()
		if got, ok := FrontEndPrefix(i); got != want || ok != wantOK {
			t.Fatalf("FrontEndPrefix(%d) = %v, %v; allocator gives %v, %v", i, got, ok, want, wantOK)
		}
	}
	if _, ok := FrontEndPrefix(-1); ok {
		t.Fatal("FrontEndPrefix(-1) succeeded")
	}
}

// TestClientPoolSpansAMillionPrefixes pins the paper-scale capacity and
// the index arithmetic: the client pool holds over five million distinct
// /24s (the 10/8 range chained into 16/4, then 64/2 for distributed
// multi-process worlds), never overlapping the front-end pool, and
// ClientPrefix(i) is the sequential allocator's i-th /24 for every i of
// the pool and fails past its end.
func TestClientPoolSpansAMillionPrefixes(t *testing.T) {
	if ClientPrefixes != 5_308_416 {
		t.Fatalf("client pool holds %d /24s, want 5,308,416", ClientPrefixes)
	}
	al := newClientAllocator()
	var last Prefix24
	for i := 0; i < ClientPrefixes+3; i++ {
		want, wantOK := al.Next()
		p, ok := ClientPrefix(i)
		if p != want || ok != wantOK {
			t.Fatalf("ClientPrefix(%d) = %v, %v; allocator gives %v, %v", i, p, ok, want, wantOK)
		}
		if ok != (i < ClientPrefixes) {
			t.Fatalf("ClientPrefix(%d) ok = %v with a pool of %d", i, ok, ClientPrefixes)
		}
		if !ok {
			continue
		}
		if i > 0 && p <= last && i != 65536 && i != 65536+1048576 {
			// Monotone within a range; the only drops are the 10/8 -> 16/4
			// and 16/4 -> 64/2 boundaries, which guarantees uniqueness
			// without a seen-map.
			t.Fatalf("allocation %d not increasing: %v after %v", i, p, last)
		}
		a, _, _ := p.Octets()
		if a != 10 && (a < 16 || a > 31) && (a < 64 || a > 127) {
			t.Fatalf("allocation %v outside the client ranges", p)
		}
		last = p
	}
	if _, ok := ClientPrefix(-1); ok {
		t.Fatal("ClientPrefix(-1) succeeded")
	}
}

// TestClientPoolPrefixStability pins the append-only growth contract: the
// prefixes every existing client index already has must be identical no
// matter how many ranges are chained after them. A reordering would
// silently re-address every generated population.
func TestClientPoolPrefixStability(t *testing.T) {
	for _, tc := range []struct {
		i    int
		want Prefix24
	}{
		{0, FromOctets(10, 0, 0)},
		{65535, FromOctets(10, 255, 255)},
		{65536, FromOctets(16, 0, 0)},           // start of 16/4
		{65536 + 1048576, FromOctets(64, 0, 0)}, // start of 64/2
		{ClientPrefixes - 1, FromOctets(127, 255, 255)},
	} {
		if got, _ := ClientPrefix(tc.i); got != tc.want {
			t.Fatalf("ClientPrefix(%d) = %v, want %v", tc.i, got, tc.want)
		}
	}
}
