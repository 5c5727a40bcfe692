// Package dnswire implements a from-scratch DNS wire codec (RFC 1035)
// with EDNS0 (RFC 6891) and the Client Subnet option (RFC 7871).
//
// It is a standalone codec: the simulator models DNS redirection in
// internal/dns without putting messages on the wire, and no server or
// resolver is built on it. It keeps the OPT/ECS wire layout that a study
// of ECS on the wire would start from.
//
// Scope: queries with one question; A/AAAA/CNAME/TXT answers; name
// compression is decoded but never emitted.
package dnswire

import (
	"errors"
	"fmt"
	"net/netip"
	"strings"
)

// Record types supported by the codec.
const (
	TypeA     uint16 = 1
	TypeCNAME uint16 = 5
	TypeTXT   uint16 = 16
	TypeAAAA  uint16 = 28
	TypeOPT   uint16 = 41
)

// ClassIN is the Internet class.
const ClassIN uint16 = 1

// Response codes.
const (
	RCodeSuccess  = 0
	RCodeFormErr  = 1
	RCodeServFail = 2
	RCodeNXDomain = 3
	RCodeNotImpl  = 4
	RCodeRefused  = 5
)

// Errors returned by the codec.
var (
	ErrTruncatedMessage = errors.New("dnswire: truncated message")
	ErrBadName          = errors.New("dnswire: malformed name")
	ErrBadPointer       = errors.New("dnswire: bad compression pointer")
	ErrNameTooLong      = errors.New("dnswire: name too long")
)

// Question is a DNS question.
type Question struct {
	Name  string
	Type  uint16
	Class uint16
}

// Record is a resource record with raw RDATA. Use the typed constructors
// and accessors for A/AAAA records.
type Record struct {
	Name  string
	Type  uint16
	Class uint16
	TTL   uint32
	Data  []byte
}

// ARecord builds an A record.
func ARecord(name string, ttl uint32, addr netip.Addr) Record {
	a4 := addr.As4()
	return Record{Name: name, Type: TypeA, Class: ClassIN, TTL: ttl, Data: a4[:]}
}

// AAAARecord builds an AAAA record.
func AAAARecord(name string, ttl uint32, addr netip.Addr) Record {
	a16 := addr.As16()
	return Record{Name: name, Type: TypeAAAA, Class: ClassIN, TTL: ttl, Data: a16[:]}
}

// Addr extracts the address of an A or AAAA record.
func (r Record) Addr() (netip.Addr, bool) {
	switch r.Type {
	case TypeA:
		if len(r.Data) == 4 {
			return netip.AddrFrom4([4]byte(r.Data)), true
		}
	case TypeAAAA:
		if len(r.Data) == 16 {
			return netip.AddrFrom16([16]byte(r.Data)), true
		}
	}
	return netip.Addr{}, false
}

// ECS is the EDNS Client Subnet option (RFC 7871).
type ECS struct {
	// SourcePrefixLen is how many address bits the client revealed.
	SourcePrefixLen uint8
	// ScopePrefixLen is set by the server in responses.
	ScopePrefixLen uint8
	// Addr is the client subnet address (host bits zero).
	Addr netip.Addr
}

// Message is a DNS message.
type Message struct {
	ID                 uint16
	Response           bool
	Opcode             uint8
	Authoritative      bool
	Truncated          bool
	RecursionDesired   bool
	RecursionAvailable bool
	RCode              uint8

	Questions   []Question
	Answers     []Record
	Authorities []Record
	Additionals []Record

	// EDNS reports whether an OPT record was present; UDPSize is its
	// advertised payload size.
	EDNS    bool
	UDPSize uint16
	// ClientSubnet carries the ECS option when present.
	ClientSubnet *ECS
}

// NewQuery builds a recursion-desired query for one question.
func NewQuery(id uint16, name string, qtype uint16) *Message {
	return &Message{
		ID:               id,
		RecursionDesired: true,
		Questions:        []Question{{Name: name, Type: qtype, Class: ClassIN}},
	}
}

// SetECS attaches a client-subnet option covering the /bits prefix of
// addr.
func (m *Message) SetECS(addr netip.Addr, bits uint8) {
	m.EDNS = true
	if m.UDPSize == 0 {
		m.UDPSize = 1232
	}
	p, err := addr.Prefix(int(bits))
	if err != nil {
		p = netip.PrefixFrom(addr, int(bits))
	}
	m.ClientSubnet = &ECS{SourcePrefixLen: bits, Addr: p.Addr()}
}

// Reply builds a response skeleton echoing the query's ID, question and
// EDNS state.
func (m *Message) Reply() *Message {
	r := &Message{
		ID:                 m.ID,
		Response:           true,
		Opcode:             m.Opcode,
		Authoritative:      true,
		RecursionDesired:   m.RecursionDesired,
		RecursionAvailable: false,
		Questions:          append([]Question(nil), m.Questions...),
		EDNS:               m.EDNS,
		UDPSize:            m.UDPSize,
	}
	if m.ClientSubnet != nil {
		cs := *m.ClientSubnet
		cs.ScopePrefixLen = cs.SourcePrefixLen
		r.ClientSubnet = &cs
	}
	return r
}

// normalizeName lowercases and strips a single trailing dot.
func normalizeName(name string) string {
	name = strings.ToLower(name)
	if len(name) > 1 && strings.HasSuffix(name, ".") {
		name = name[:len(name)-1]
	}
	return name
}

// packName appends the uncompressed wire form of name.
func packName(b []byte, name string) ([]byte, error) {
	name = normalizeName(name)
	if name == "" || name == "." {
		return append(b, 0), nil
	}
	if len(name) > 253 {
		return nil, ErrNameTooLong
	}
	for _, label := range strings.Split(name, ".") {
		if len(label) == 0 || len(label) > 63 {
			return nil, ErrBadName
		}
		b = append(b, byte(len(label)))
		b = append(b, label...)
	}
	return append(b, 0), nil
}

// unpackName decodes a possibly compressed name starting at off,
// returning the name and the offset just past it in the original stream.
func unpackName(msg []byte, off int) (string, int, error) {
	var labels []string
	jumped := false
	next := -1 // offset after the first pointer
	hops := 0
	for {
		if off >= len(msg) {
			return "", 0, ErrTruncatedMessage
		}
		c := int(msg[off])
		switch {
		case c == 0:
			off++
			if !jumped {
				next = off
			}
			name := strings.Join(labels, ".")
			if name == "" {
				name = "."
			}
			return name, next, nil
		case c&0xc0 == 0xc0:
			if off+1 >= len(msg) {
				return "", 0, ErrTruncatedMessage
			}
			ptr := (c&0x3f)<<8 | int(msg[off+1])
			if !jumped {
				next = off + 2
				jumped = true
			}
			if ptr >= off {
				return "", 0, ErrBadPointer
			}
			off = ptr
			hops++
			if hops > 32 {
				return "", 0, ErrBadPointer
			}
		case c&0xc0 != 0:
			return "", 0, ErrBadName
		default:
			if off+1+c > len(msg) {
				return "", 0, ErrTruncatedMessage
			}
			labels = append(labels, string(msg[off+1:off+1+c]))
			off += 1 + c
			if len(labels) > 128 {
				return "", 0, ErrBadName
			}
		}
	}
}

func put16(b []byte, v uint16) []byte { return append(b, byte(v>>8), byte(v)) }
func put32(b []byte, v uint32) []byte {
	return append(b, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

// Pack serializes the message.
func (m *Message) Pack() ([]byte, error) {
	b := make([]byte, 0, 512)
	b = put16(b, m.ID)
	var flags uint16
	if m.Response {
		flags |= 1 << 15
	}
	flags |= uint16(m.Opcode&0xf) << 11
	if m.Authoritative {
		flags |= 1 << 10
	}
	if m.Truncated {
		flags |= 1 << 9
	}
	if m.RecursionDesired {
		flags |= 1 << 8
	}
	if m.RecursionAvailable {
		flags |= 1 << 7
	}
	flags |= uint16(m.RCode & 0xf)
	b = put16(b, flags)
	additionals := m.Additionals
	if m.EDNS {
		opt, err := m.packOPT()
		if err != nil {
			return nil, err
		}
		additionals = append(append([]Record(nil), additionals...), opt)
	}
	b = put16(b, uint16(len(m.Questions)))
	b = put16(b, uint16(len(m.Answers)))
	b = put16(b, uint16(len(m.Authorities)))
	b = put16(b, uint16(len(additionals)))
	var err error
	for _, q := range m.Questions {
		if b, err = packName(b, q.Name); err != nil {
			return nil, err
		}
		b = put16(b, q.Type)
		b = put16(b, q.Class)
	}
	for _, sec := range [][]Record{m.Answers, m.Authorities, additionals} {
		for _, r := range sec {
			if b, err = packRecord(b, r); err != nil {
				return nil, err
			}
		}
	}
	return b, nil
}

func packRecord(b []byte, r Record) ([]byte, error) {
	b, err := packName(b, r.Name)
	if err != nil {
		return nil, err
	}
	b = put16(b, r.Type)
	b = put16(b, r.Class)
	b = put32(b, r.TTL)
	if len(r.Data) > 0xffff {
		return nil, fmt.Errorf("dnswire: rdata too long (%d bytes)", len(r.Data))
	}
	b = put16(b, uint16(len(r.Data)))
	return append(b, r.Data...), nil
}

// packOPT builds the OPT pseudo-record carrying EDNS state.
func (m *Message) packOPT() (Record, error) {
	size := m.UDPSize
	if size == 0 {
		size = 1232
	}
	r := Record{Name: ".", Type: TypeOPT, Class: size}
	if cs := m.ClientSubnet; cs != nil {
		family := uint16(1)
		addrBytes := 4
		if cs.Addr.Is6() && !cs.Addr.Is4In6() {
			family = 2
			addrBytes = 16
		}
		n := (int(cs.SourcePrefixLen) + 7) / 8
		if n > addrBytes {
			return Record{}, fmt.Errorf("dnswire: ECS prefix length %d too long", cs.SourcePrefixLen)
		}
		var raw []byte
		if family == 1 {
			a := cs.Addr.Unmap().As4()
			raw = a[:n]
		} else {
			a := cs.Addr.As16()
			raw = a[:n]
		}
		var opt []byte
		opt = put16(opt, 8) // OPTION-CODE: edns-client-subnet
		opt = put16(opt, uint16(4+n))
		opt = put16(opt, family)
		opt = append(opt, cs.SourcePrefixLen, cs.ScopePrefixLen)
		opt = append(opt, raw...)
		r.Data = opt
	}
	return r, nil
}

// Unpack parses a wire message.
func Unpack(msg []byte) (*Message, error) {
	if len(msg) < 12 {
		return nil, ErrTruncatedMessage
	}
	m := &Message{}
	m.ID = uint16(msg[0])<<8 | uint16(msg[1])
	flags := uint16(msg[2])<<8 | uint16(msg[3])
	m.Response = flags&(1<<15) != 0
	m.Opcode = uint8(flags >> 11 & 0xf)
	m.Authoritative = flags&(1<<10) != 0
	m.Truncated = flags&(1<<9) != 0
	m.RecursionDesired = flags&(1<<8) != 0
	m.RecursionAvailable = flags&(1<<7) != 0
	m.RCode = uint8(flags & 0xf)
	qd := int(uint16(msg[4])<<8 | uint16(msg[5]))
	an := int(uint16(msg[6])<<8 | uint16(msg[7]))
	ns := int(uint16(msg[8])<<8 | uint16(msg[9]))
	ar := int(uint16(msg[10])<<8 | uint16(msg[11]))
	off := 12
	var err error
	for i := 0; i < qd; i++ {
		var q Question
		q.Name, off, err = unpackName(msg, off)
		if err != nil {
			return nil, err
		}
		if off+4 > len(msg) {
			return nil, ErrTruncatedMessage
		}
		q.Type = uint16(msg[off])<<8 | uint16(msg[off+1])
		q.Class = uint16(msg[off+2])<<8 | uint16(msg[off+3])
		off += 4
		m.Questions = append(m.Questions, q)
	}
	sections := []struct {
		count int
		dst   *[]Record
	}{{an, &m.Answers}, {ns, &m.Authorities}, {ar, &m.Additionals}}
	for _, sec := range sections {
		for i := 0; i < sec.count; i++ {
			var r Record
			r, off, err = unpackRecord(msg, off)
			if err != nil {
				return nil, err
			}
			if r.Type == TypeOPT {
				m.EDNS = true
				m.UDPSize = r.Class
				if cs, ok := parseECS(r.Data); ok {
					m.ClientSubnet = &cs
				}
				continue
			}
			*sec.dst = append(*sec.dst, r)
		}
	}
	return m, nil
}

func unpackRecord(msg []byte, off int) (Record, int, error) {
	var r Record
	var err error
	r.Name, off, err = unpackName(msg, off)
	if err != nil {
		return r, 0, err
	}
	if off+10 > len(msg) {
		return r, 0, ErrTruncatedMessage
	}
	r.Type = uint16(msg[off])<<8 | uint16(msg[off+1])
	r.Class = uint16(msg[off+2])<<8 | uint16(msg[off+3])
	r.TTL = uint32(msg[off+4])<<24 | uint32(msg[off+5])<<16 | uint32(msg[off+6])<<8 | uint32(msg[off+7])
	rdlen := int(uint16(msg[off+8])<<8 | uint16(msg[off+9]))
	off += 10
	if off+rdlen > len(msg) {
		return r, 0, ErrTruncatedMessage
	}
	r.Data = append([]byte(nil), msg[off:off+rdlen]...)
	return r, off + rdlen, nil
}

// parseECS decodes an EDNS option block looking for client-subnet.
func parseECS(data []byte) (ECS, bool) {
	off := 0
	for off+4 <= len(data) {
		code := uint16(data[off])<<8 | uint16(data[off+1])
		length := int(uint16(data[off+2])<<8 | uint16(data[off+3]))
		off += 4
		if off+length > len(data) {
			return ECS{}, false
		}
		if code != 8 {
			off += length
			continue
		}
		opt := data[off : off+length]
		if len(opt) < 4 {
			return ECS{}, false
		}
		family := uint16(opt[0])<<8 | uint16(opt[1])
		cs := ECS{SourcePrefixLen: opt[2], ScopePrefixLen: opt[3]}
		raw := opt[4:]
		switch family {
		case 1:
			var a4 [4]byte
			if len(raw) > 4 {
				return ECS{}, false
			}
			copy(a4[:], raw)
			cs.Addr = netip.AddrFrom4(a4)
		case 2:
			var a16 [16]byte
			if len(raw) > 16 {
				return ECS{}, false
			}
			copy(a16[:], raw)
			cs.Addr = netip.AddrFrom16(a16)
		default:
			return ECS{}, false
		}
		return cs, true
	}
	return ECS{}, false
}
