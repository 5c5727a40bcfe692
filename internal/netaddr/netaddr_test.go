package netaddr

import (
	"testing"
	"testing/quick"
)

func TestParsePrefix24(t *testing.T) {
	p, err := ParsePrefix24("192.0.2.0/24")
	if err != nil {
		t.Fatal(err)
	}
	if p.String() != "192.0.2.0/24" {
		t.Fatalf("round trip = %q", p.String())
	}
}

func TestParsePrefix24Errors(t *testing.T) {
	for _, s := range []string{"", "garbage", "192.0.2.0/23", "192.0.2.0", "2001:db8::/24"} {
		if _, err := ParsePrefix24(s); err == nil {
			t.Errorf("ParsePrefix24(%q) should fail", s)
		}
	}
}

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

func TestAllocatorUnique(t *testing.T) {
	al := NewAllocator(ClientPool)
	seen := map[Prefix24]bool{}
	for i := 0; i < 10000; i++ {
		p, ok := al.Next()
		if !ok {
			t.Fatalf("pool exhausted at %d", i)
		}
		if seen[p] {
			t.Fatalf("duplicate allocation %v", p)
		}
		seen[p] = true
	}
}

func TestAllocatorPoolsDisjoint(t *testing.T) {
	ca := NewAllocator(ClientPool)
	fa := NewAllocator(FrontEndPool)
	cp, _ := ca.Next()
	fp, _ := fa.Next()
	if cp == fp {
		t.Fatal("client and front-end pools overlap")
	}
	a, _, _ := cp.Octets()
	if a != 10 {
		t.Fatalf("client pool starts at %v, want 10.x", cp)
	}
	a, b, _ := fp.Octets()
	if a != 198 || b != 18 {
		t.Fatalf("front-end pool starts at %v, want 198.18.x", fp)
	}
}

func TestAllocatorExhaustion(t *testing.T) {
	al := NewAllocator(FrontEndPool)
	n := al.Remaining()
	for i := 0; i < n; i++ {
		if _, ok := al.Next(); !ok {
			t.Fatalf("pool exhausted early at %d of %d", i, n)
		}
	}
	if _, ok := al.Next(); ok {
		t.Fatal("allocation succeeded past pool size")
	}
	if al.Remaining() != 0 {
		t.Fatalf("Remaining = %d after exhaustion", al.Remaining())
	}
}

// TestClientPoolSpansAMillionPrefixes pins the paper-scale capacity: the
// client pool must hand out over five million distinct /24s (the 10/8
// range chained into 16/4, then 64/2 for distributed multi-process
// worlds), never overlapping the front-end pool, and Remaining must count
// down across the range boundaries.
func TestClientPoolSpansAMillionPrefixes(t *testing.T) {
	al := NewAllocator(ClientPool)
	total := al.Remaining()
	if total < 4_000_000 {
		t.Fatalf("client pool holds %d /24s, want >= 4M for distributed runs", total)
	}
	var last Prefix24
	for i := 0; i < total; i++ {
		p, ok := al.Next()
		if !ok {
			t.Fatalf("pool exhausted at %d of %d", i, total)
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
	if _, ok := al.Next(); ok {
		t.Fatal("pool should be exhausted")
	}
	if al.Remaining() != 0 {
		t.Fatalf("Remaining = %d after exhaustion", al.Remaining())
	}
}

// TestClientPoolPrefixStability pins the append-only growth contract: the
// first allocations out of the client pool — the prefixes every existing
// client index already has — must be identical no matter how many ranges
// are chained after them. A reordering would silently re-address every
// generated population.
func TestClientPoolPrefixStability(t *testing.T) {
	al := NewAllocator(ClientPool)
	first, _ := al.Next()
	if want := FromOctets(10, 0, 0); first != want {
		t.Fatalf("first client prefix = %v, want %v", first, want)
	}
	// Skip to the first cross-range boundary and check the handoff.
	for i := 1; i < 65536; i++ {
		al.Next()
	}
	p, _ := al.Next()
	if want := FromOctets(16, 0, 0); p != want {
		t.Fatalf("allocation 65536 = %v, want %v (start of 16/4)", p, want)
	}
}
