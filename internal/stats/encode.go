package stats

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// This file is the wire layer of the streaming accumulator: a
// QuantileSketch bin vector is serialized into a length-free
// append-style buffer, shipped over a socket, and folded into another
// process's sketch — the distributed simulation ships each shard's
// Figure 8 sketch this way to its coordinator. The encoding is
// little-endian, versioned by a magic byte, and deliberately raw: float64
// bits are copied verbatim, so a decode(encode(x)) round trip is
// bit-identical and a merge of encoded partials reproduces the exact
// float operations an in-process Merge would have performed.

// sketchMagic doubles as a one-byte format version. Bump on any layout
// change so a coordinator never silently misreads a frame from a
// mismatched worker binary.
const sketchMagic = 0xA5

// ErrEncoding reports a malformed or truncated accumulator encoding.
var ErrEncoding = errors.New("stats: malformed accumulator encoding")

// ErrLayout reports a decode or encoded-merge against an accumulator
// whose layout (bin count, range, spacing) differs from the encoder's.
var ErrLayout = errors.New("stats: encoded sketch layout mismatch")

func putU64(dst []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(dst, v)
}

func getU64(data []byte) (uint64, []byte, error) {
	if len(data) < 8 {
		return 0, nil, ErrEncoding
	}
	return binary.LittleEndian.Uint64(data), data[8:], nil
}

func putF64(dst []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
}

func getF64(data []byte) (float64, []byte, error) {
	u, rest, err := getU64(data)
	return math.Float64frombits(u), rest, err
}

// sketchHeaderBytes is the encoded header: magic, spacing flag, lo, hi,
// bin count, sample count and total weight.
const sketchHeaderBytes = 1 + 1 + 5*8

// EncodedLen returns the number of bytes Encode appends. It is constant
// for a given layout: the header plus 8 bytes per bin, the underflow and
// overflow bins included.
func (s *QuantileSketch[T]) EncodedLen() int { return sketchHeaderBytes + 8*len(s.bins) }

// Encode appends the sketch — layout header plus bin vector — to dst and
// returns the extended slice, EncodedLen bytes longer.
func (s *QuantileSketch[T]) Encode(dst []byte) []byte {
	dst = append(dst, sketchMagic)
	if s.log {
		dst = append(dst, 1)
	} else {
		dst = append(dst, 0)
	}
	dst = putF64(dst, s.lo)
	dst = putF64(dst, s.hi)
	dst = putU64(dst, uint64(len(s.bins)))
	dst = putU64(dst, s.n)
	dst = putF64(dst, s.total)
	for _, w := range s.bins {
		dst = putF64(dst, w)
	}
	return dst
}

// Decode replaces the sketch's contents with one encoded sketch read from
// the front of data and returns the unread remainder. The encoded layout
// must match s's exactly (same constructor arguments); ErrLayout
// otherwise — the same rule Merge enforces, surfaced before any state is
// modified.
func (s *QuantileSketch[T]) Decode(data []byte) ([]byte, error) {
	s.Reset()
	return s.MergeEncoded(data)
}

// MergeEncoded adds one encoded sketch's bins from the front of data —
// the wire form of Merge, allocation-free in steady state — and returns
// the unread remainder. ErrLayout if the encoded layout differs from s's.
func (s *QuantileSketch[T]) MergeEncoded(data []byte) ([]byte, error) {
	if len(data) < 1 || data[0] != sketchMagic {
		return nil, fmt.Errorf("%w: bad sketch magic", ErrEncoding)
	}
	if len(data) < sketchHeaderBytes {
		return nil, fmt.Errorf("%w: truncated sketch header", ErrEncoding)
	}
	log := data[1] == 1
	data = data[2:]
	lo, data, _ := getF64(data)
	hi, data, _ := getF64(data)
	nbins, data, _ := getU64(data)
	n, data, _ := getU64(data)
	total, data, _ := getF64(data)
	if log != s.log || lo != s.lo || hi != s.hi || int(nbins) != len(s.bins) {
		return nil, fmt.Errorf("%w: got %d bins over [%v, %v), have %d over [%v, %v)",
			ErrLayout, nbins, lo, hi, len(s.bins), s.lo, s.hi)
	}
	if nbins > uint64(len(data))/8 {
		return nil, fmt.Errorf("%w: truncated sketch bins", ErrEncoding)
	}
	for i := range s.bins {
		s.bins[i] += math.Float64frombits(binary.LittleEndian.Uint64(data))
		data = data[8:]
	}
	s.n += n
	s.total += total
	return data, nil
}

// Reset zeroes the sketch's contents in place, keeping its layout.
func (s *QuantileSketch[T]) Reset() {
	for i := range s.bins {
		s.bins[i] = 0
	}
	s.total = 0
	s.n = 0
}
