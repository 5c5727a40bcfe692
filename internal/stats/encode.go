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
// bits are copied verbatim, so merging a sketch's encoding into an empty
// sketch of the same layout reproduces it bit for bit.

// sketchMagic doubles as a one-byte format version. Bump on any layout
// change so a coordinator never silently misreads a frame from a
// mismatched worker binary.
const sketchMagic = 0xA6

// ErrEncoding reports a malformed or truncated accumulator encoding.
var ErrEncoding = errors.New("stats: malformed accumulator encoding")

// ErrLayout reports an encoded merge into an accumulator whose layout
// (bin count, range) differs from the encoder's.
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

// sketchHeaderBytes is the encoded header: magic, lo, hi, bin count and
// sample count.
const sketchHeaderBytes = 1 + 4*8

// EncodedLen returns the number of bytes Encode appends. It is constant
// for a given layout: the header plus 8 bytes per bin, the underflow and
// overflow bins included.
func (s *QuantileSketch[T]) EncodedLen() int { return sketchHeaderBytes + 8*len(s.bins) }

// Encode appends the sketch — layout header plus bin vector — to dst and
// returns the extended slice, EncodedLen bytes longer.
func (s *QuantileSketch[T]) Encode(dst []byte) []byte {
	dst = append(dst, sketchMagic)
	dst = putF64(dst, s.lo)
	dst = putF64(dst, s.hi)
	dst = putU64(dst, uint64(len(s.bins)))
	dst = putU64(dst, s.n)
	for _, w := range s.bins {
		dst = putF64(dst, w)
	}
	return dst
}

// MergeEncoded adds one encoded sketch's bins from the front of data,
// allocation-free in steady state, and returns the unread remainder. The
// encoded layout must match s's exactly (same constructor arguments);
// ErrLayout otherwise, surfaced before any state is modified.
func (s *QuantileSketch[T]) MergeEncoded(data []byte) ([]byte, error) {
	if len(data) < 1 || data[0] != sketchMagic {
		return nil, fmt.Errorf("%w: bad sketch magic", ErrEncoding)
	}
	if len(data) < sketchHeaderBytes {
		return nil, fmt.Errorf("%w: truncated sketch header", ErrEncoding)
	}
	data = data[1:]
	lo, data, _ := getF64(data)
	hi, data, _ := getF64(data)
	nbins, data, _ := getU64(data)
	n, data, _ := getU64(data)
	if lo != s.lo || hi != s.hi || int(nbins) != len(s.bins) {
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
	return data, nil
}
