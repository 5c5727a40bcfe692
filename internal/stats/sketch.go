package stats

import (
	"errors"
	"math"
)

// This file holds the streaming accumulator the online experiment
// pipeline aggregates Figure 8 with: a fixed-bin quantile sketch,
// deterministic under the rules documented on the type, so a
// day-at-a-time streaming run and a whole-log batch scan produce
// byte-identical figures.

// QuantileSketch is a fixed-bin streaming distribution sketch: constant
// memory however many samples it sees, at the cost of quantile resolution
// equal to the bin width. Bins are logarithmically spaced; samples below
// the range land in an underflow bin (reported as lo) and samples at or
// above hi land in an overflow bin (reported as hi).
//
// Determinism: a sample's bin is a pure function of its value, and Adds
// accumulate integer-valued bin counts, whose float64 sums are exact in
// any accumulation order — so two sketches fed the same multiset of
// samples are identical regardless of order, and MergeEncoded is exactly
// commutative and associative.
type QuantileSketch[T ~float64] struct {
	lo, hi float64
	scale  float64   // bins per unit of log(x)
	bins   []float64 // [underflow, bin 0 .. bin n-1, overflow]
	n      uint64    // samples recorded: the bins' total
}

// ErrRange reports an invalid sketch range.
var ErrRange = errors.New("stats: invalid sketch range")

// NewLogQuantileSketch builds a sketch with nbins log-spaced bins
// covering [lo, hi), lo > 0 — the layout for long-tailed quantities like
// the paper's switch distances (Figure 8's axis is log-scale kilometers).
func NewLogQuantileSketch[T ~float64](lo, hi T, nbins int) (*QuantileSketch[T], error) {
	if !(float64(lo) > 0) || !(float64(hi) > float64(lo)) || nbins < 1 {
		return nil, ErrRange
	}
	return &QuantileSketch[T]{
		lo:    float64(lo),
		hi:    float64(hi),
		scale: float64(nbins) / (math.Log(float64(hi)) - math.Log(float64(lo))),
		bins:  make([]float64, nbins+2),
	}, nil
}

// binOf maps a sample to its bin index within bins (0 = underflow,
// len(bins)-1 = overflow).
func (s *QuantileSketch[T]) binOf(x T) int {
	v := float64(x)
	if math.IsNaN(v) || v < s.lo {
		return 0
	}
	if v >= s.hi {
		return len(s.bins) - 1
	}
	i := int((math.Log(v)-math.Log(s.lo))*s.scale) + 1
	if i > len(s.bins)-2 { // float edge: Log(v) rounding at the top bound
		i = len(s.bins) - 2
	}
	return i
}

// Add records a sample.
func (s *QuantileSketch[T]) Add(x T) {
	s.bins[s.binOf(x)]++
	s.n++
}

// N returns the number of samples recorded.
func (s *QuantileSketch[T]) N() uint64 { return s.n }

// upperEdge returns the inclusive upper value of bin i: lo for the
// underflow bin, hi for the last regular bin and the overflow bin. The
// last regular bin's edge is hi exactly, not exp(log hi), which can round
// above hi and would stop P(hi) short of the overflow bin.
func (s *QuantileSketch[T]) upperEdge(i int) T {
	switch {
	case i <= 0:
		return T(s.lo)
	case i >= len(s.bins)-2:
		return T(s.hi)
	}
	nbins := len(s.bins) - 2
	llo, lhi := math.Log(s.lo), math.Log(s.hi)
	return T(math.Exp(llo + float64(i)*(lhi-llo)/float64(nbins)))
}

// Quantile returns the upper edge of the bin holding the q-quantile: the
// smallest bin boundary x with P[X <= x] >= q, i.e. the true quantile
// rounded up to bin resolution. It returns lo on an empty sketch.
func (s *QuantileSketch[T]) Quantile(q float64) T {
	if s.n == 0 {
		return T(s.lo)
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := q * float64(s.n)
	var acc float64
	for i, w := range s.bins {
		acc += w
		if acc >= target && w > 0 {
			return s.upperEdge(i)
		}
	}
	return T(s.hi)
}

// P returns the fraction of recorded weight in bins whose upper edge is
// <= x — the CDF at bin resolution, exact at bin boundaries. An empty
// sketch reports 0.
func (s *QuantileSketch[T]) P(x T) float64 {
	if s.n == 0 {
		return 0
	}
	var acc float64
	for i, w := range s.bins {
		if float64(s.upperEdge(i)) > float64(x) && i > 0 {
			break
		}
		acc += w
	}
	return acc / float64(s.n)
}

// SampleCDF evaluates the sketch CDF at each x in grid, producing a
// figure line like ECDF.SampleCDF.
func (s *QuantileSketch[T]) SampleCDF(name string, grid []T) Series {
	out := Series{Name: name, Points: make([]SeriesPoint, len(grid))}
	for i, x := range grid {
		out.Points[i] = SeriesPoint{X: float64(x), Y: s.P(x)}
	}
	return out
}
