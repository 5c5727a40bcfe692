package dnswire

import (
	"net/netip"
	"testing"
)

// FuzzMessageUnpack throws arbitrary bytes at the wire decoder. The
// invariants: Unpack never panics (its input is untrusted wire bytes),
// and any message it accepts survives a Pack/Unpack round trip.
// Pack is allowed to reject an accepted message — wire labels may contain
// bytes (embedded dots, empty runs) that the name validator refuses on
// the way back out — but it must not panic either.
func FuzzMessageUnpack(f *testing.F) {
	// Seeds from the unit-test vectors: a plain query, an ECS query, and
	// a response carrying A, AAAA, and compressed names.
	q := NewQuery(0x1234, "beacon.example.com", TypeA)
	if pkt, err := q.Pack(); err == nil {
		f.Add(pkt)
	}
	e := NewQuery(9, "ecs.test", TypeA)
	e.SetECS(netip.MustParseAddr("203.0.113.57"), 24)
	if pkt, err := e.Pack(); err == nil {
		f.Add(pkt)
	}
	r := e.Reply()
	r.Answers = append(r.Answers,
		ARecord("ecs.test", 60, netip.MustParseAddr("192.0.2.1")),
		AAAARecord("ecs.test", 60, netip.MustParseAddr("2001:db8::1")))
	if pkt, err := r.Pack(); err == nil {
		f.Add(pkt)
	}
	// Hand-built adversarial seeds: empty, truncated header, and a name
	// pointer that points at itself (the decoder must bound the chase).
	f.Add([]byte{})
	f.Add([]byte{0x12, 0x34, 0x01, 0x00, 0x00, 0x01})
	f.Add([]byte{
		0x12, 0x34, 0x01, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
		0xc0, 0x0c, // QNAME: pointer to offset 12, i.e. itself
		0x00, 0x01, 0x00, 0x01,
	})

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Unpack(data)
		if err != nil {
			return
		}
		repacked, err := m.Pack()
		if err != nil {
			return
		}
		m2, err := Unpack(repacked)
		if err != nil {
			t.Fatalf("Unpack(Pack(Unpack(%x))) failed: %v", data, err)
		}
		if m2.ID != m.ID {
			t.Fatalf("ID changed across round trip: %#x -> %#x", m.ID, m2.ID)
		}
		if len(m2.Questions) != len(m.Questions) {
			t.Fatalf("question count changed across round trip: %d -> %d",
				len(m.Questions), len(m2.Questions))
		}
	})
}
