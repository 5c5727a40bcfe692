package stats

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// This file is the wire layer of the streaming accumulators: partial
// aggregates (ECDFBuilder sample runs, QuantileSketch bin vectors) are
// serialized into length-free append-style buffers, shipped over a
// socket, and folded into another process's accumulators — the
// distributed simulation ships each shard's Figure 8 sketch this way to
// its coordinator. The encoding is little-endian, versioned by
// a per-type magic byte, and deliberately raw: float64 bits are copied
// verbatim, so a decode(encode(x)) round trip is bit-identical and a
// merge of encoded partials reproduces the exact float operations an
// in-process Merge would have performed.

// Encoding magic bytes, doubling as a one-byte format version. Bump on
// any layout change so a coordinator never silently misreads a frame
// from a mismatched worker binary.
const (
	ecdfMagic   = 0xE1
	sketchMagic = 0xA5
)

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

// Encode appends the builder's samples to dst and returns the extended
// slice. The samples travel in insertion order, so a receiver that
// decodes (or MergeEncoded-s) partial builders in a fixed order
// reproduces exactly the insertion order a sequential pass would have
// produced — the property the distributed merge's byte-identity rests on.
func (b *ECDFBuilder[T]) Encode(dst []byte) []byte {
	dst = append(dst, ecdfMagic)
	dst = putU64(dst, uint64(len(b.xs)))
	for i := range b.xs {
		dst = putF64(dst, float64(b.xs[i]))
		dst = putF64(dst, b.ws[i])
	}
	return dst
}

// Decode replaces the builder's contents with one encoded builder read
// from the front of data, reusing existing capacity, and returns the
// unread remainder.
func (b *ECDFBuilder[T]) Decode(data []byte) ([]byte, error) {
	b.Reset()
	return b.MergeEncoded(data)
}

// MergeEncoded appends one encoded builder's samples from the front of
// data — the wire form of Merge — and returns the unread remainder.
func (b *ECDFBuilder[T]) MergeEncoded(data []byte) ([]byte, error) {
	if len(data) < 1 || data[0] != ecdfMagic {
		return nil, fmt.Errorf("%w: bad ECDF builder magic", ErrEncoding)
	}
	n, data, err := getU64(data[1:])
	if err != nil {
		return nil, err
	}
	if n > uint64(len(data))/16 {
		return nil, fmt.Errorf("%w: truncated ECDF builder payload", ErrEncoding)
	}
	b.Grow(int(n))
	for i := uint64(0); i < n; i++ {
		x := math.Float64frombits(binary.LittleEndian.Uint64(data))
		w := math.Float64frombits(binary.LittleEndian.Uint64(data[8:]))
		data = data[16:]
		b.xs = append(b.xs, T(x))
		b.ws = append(b.ws, w)
	}
	return data, nil
}

// Encode appends the sketch — layout header plus bin vector — to dst and
// returns the extended slice. The encoded size is constant for a given
// layout: 34 bytes of header plus 8 per bin.
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
	if len(data) < 2+8+8+8+8+8 {
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

// Reset drops the builder's samples, keeping capacity for reuse.
func (b *ECDFBuilder[T]) Reset() {
	b.xs = b.xs[:0]
	b.ws = b.ws[:0]
}
