// Package stats implements the statistical machinery the paper's analysis
// uses: empirical CDFs and CCDFs (weighted and unweighted), quantiles, the
// coefficient of variation the paper used to choose its prediction metric,
// and fixed-grid series sampling for rendering figures as tables.
//
// Everything is generic over ~float64 so the dimension-typed quantities in
// internal/units (Millis, Kilometers) flow through quantiles and CDFs
// without unwrapping: the quantile of a []units.Millis is a units.Millis.
// All arithmetic happens on the underlying float64 in the same operation
// order as the pre-generic implementation, so same-seed replays are
// byte-identical.
package stats

import (
	"errors"
	"math"
	"slices"
	"sort"
)

// ErrEmpty is returned by operations over empty samples.
var ErrEmpty = errors.New("stats: empty sample")

// less mirrors sort.Float64s ordering: ascending, NaNs first.
func less[T ~float64](a, b T) bool {
	return a < b || (math.IsNaN(float64(a)) && !math.IsNaN(float64(b)))
}

// Quantile returns the q-quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics (type-7, the common default).
// xs need not be sorted. It returns an error for empty input or q outside
// [0, 1].
func Quantile[T ~float64](xs []T, q float64) (T, error) {
	s := append([]T(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return less(s[i], s[j]) })
	return QuantileSorted(s, q)
}

// QuantileSorted is Quantile over samples already sorted ascending (NaNs
// first, as slices.Sort orders them), without Quantile's copy and sort.
func QuantileSorted[T ~float64](s []T, q float64) (T, error) {
	if len(s) == 0 {
		return 0, ErrEmpty
	}
	if q < 0 || q > 1 || math.IsNaN(q) {
		return 0, errors.New("stats: quantile out of range")
	}
	if len(s) == 1 {
		return s[0], nil
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo], nil
	}
	frac := pos - float64(lo)
	return T(float64(s[lo])*(1-frac) + float64(s[hi])*frac), nil
}

// Median is Quantile(xs, 0.5).
func Median[T ~float64](xs []T) (T, error) { return Quantile(xs, 0.5) }

// Mean returns the arithmetic mean.
func Mean[T ~float64](xs []T) (T, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	var sum float64
	for _, x := range xs {
		sum += float64(x)
	}
	return T(sum / float64(len(xs))), nil
}

// StdDev returns the population standard deviation.
func StdDev[T ~float64](xs []T) (T, error) {
	m, err := Mean(xs)
	if err != nil {
		return 0, err
	}
	var ss float64
	for _, x := range xs {
		d := float64(x) - float64(m)
		ss += d * d
	}
	return T(math.Sqrt(ss / float64(len(xs)))), nil
}

// CoefficientOfVariation returns stddev/mean, a dimensionless float64
// whatever the unit of xs. The paper uses the CoV of per-front-end latency
// distributions to argue that the 25th percentile and median are stabler
// prediction metrics than high percentiles.
func CoefficientOfVariation[T ~float64](xs []T) (float64, error) {
	m, err := Mean(xs)
	if err != nil {
		return 0, err
	}
	if m == 0 {
		return 0, errors.New("stats: zero mean")
	}
	sd, err := StdDev(xs)
	if err != nil {
		return 0, err
	}
	return float64(sd) / float64(m), nil
}

// ECDF is an empirical cumulative distribution, optionally weighted.
// Construct with NewECDF or NewWeightedECDF. The sample axis keeps the
// unit type of its input; probabilities are bare float64.
type ECDF[T ~float64] struct {
	xs []T       // sorted
	cw []float64 // cumulative weight, same length; cw[len-1] == total
}

// NewECDF builds an unweighted ECDF from samples: every sample weighs 1.
// It sorts a copy of the bare samples and counts, which equals
// NewWeightedECDF over all-ones weights bit for bit. Both sorts are
// pdqsort from one template, whose swaps depend only on the outcomes of
// x < y, so they order the samples identically (±0 included), and a
// running sum of ones is the exact integer i+1.
func NewECDF[T ~float64](samples []T) (*ECDF[T], error) {
	if len(samples) == 0 {
		return nil, ErrEmpty
	}
	for _, x := range samples {
		if math.IsNaN(float64(x)) {
			return nil, errors.New("stats: negative or NaN weight/sample")
		}
	}
	xs := slices.Clone(samples)
	slices.Sort(xs)
	return &ECDF[T]{xs: xs, cw: counts(len(xs))}, nil
}

// counts returns the cumulative weights 1, 2, …, n of n unit weights.
func counts(n int) []float64 {
	cw := make([]float64, n)
	for i := range cw {
		cw[i] = float64(i + 1)
	}
	return cw
}

// NewWeightedECDF builds an ECDF where samples[i] carries weights[i]. The
// paper weights /24s by query volume for several figures. Weights must be
// non-negative with a positive sum.
func NewWeightedECDF[T ~float64](samples []T, weights []float64) (*ECDF[T], error) {
	if len(samples) == 0 {
		return nil, ErrEmpty
	}
	if len(samples) != len(weights) {
		return nil, errors.New("stats: samples and weights length mismatch")
	}
	ps := make([]weighted[T], len(samples))
	var total float64
	for i := range samples {
		if weights[i] < 0 || math.IsNaN(weights[i]) || math.IsNaN(float64(samples[i])) {
			return nil, errors.New("stats: negative or NaN weight/sample")
		}
		ps[i] = weighted[T]{samples[i], weights[i]}
		total += weights[i]
	}
	if total <= 0 {
		return nil, errors.New("stats: zero total weight")
	}
	sortWeighted(ps)
	e := &ECDF[T]{xs: make([]T, len(ps)), cw: make([]float64, len(ps))}
	var acc float64
	for i, p := range ps {
		acc += p.w
		e.xs[i] = p.x
		e.cw[i] = acc
	}
	return e, nil
}

// weighted is one sample of a weighted ECDF.
type weighted[T ~float64] struct {
	x T
	w float64
}

// sortWeighted sorts samples by x alone. slices.SortFunc and sort.Slice
// are pdqsort from one template whose swaps depend only on the outcomes
// of x < y, so this applies the permutation sort.Slice would, and tied
// samples sum their weights in the same order.
func sortWeighted[T ~float64](ps []weighted[T]) {
	slices.SortFunc(ps, func(a, b weighted[T]) int {
		if a.x < b.x {
			return -1
		}
		return 0
	})
}

// Unweighted returns the unweighted ECDF of e's samples, sharing e's
// sorted samples: NewECDF over the same samples, without sorting them
// again. The sorts apply the same permutation, so the samples are
// identical.
func (e *ECDF[T]) Unweighted() *ECDF[T] {
	return &ECDF[T]{xs: e.xs, cw: counts(len(e.xs))}
}

// P returns P[X <= x].
func (e *ECDF[T]) P(x T) float64 {
	// Index of the first sample >= x (what sort.SearchFloat64s computes).
	i := sort.Search(len(e.xs), func(i int) bool { return e.xs[i] >= x })
	// Walk forward over equal values to include them.
	for i < len(e.xs) && e.xs[i] == x {
		i++
	}
	if i == 0 {
		return 0
	}
	return e.cw[i-1] / e.cw[len(e.cw)-1]
}

// CCDF returns P[X > x].
func (e *ECDF[T]) CCDF(x T) float64 { return 1 - e.P(x) }

// Quantile returns the smallest sample x with P[X <= x] >= q.
func (e *ECDF[T]) Quantile(q float64) T {
	if q <= 0 {
		return e.xs[0]
	}
	if q >= 1 {
		return e.xs[len(e.xs)-1]
	}
	target := q * e.cw[len(e.cw)-1]
	i := sort.SearchFloat64s(e.cw, target)
	if i >= len(e.xs) {
		i = len(e.xs) - 1
	}
	return e.xs[i]
}

// N returns the number of samples.
func (e *ECDF[T]) N() int { return len(e.xs) }

// SeriesPoint is one (x, y) pair of a rendered figure series.
type SeriesPoint struct {
	X float64
	Y float64
}

// Series is a named sequence of points, i.e. one line of a figure. Render
// output is deliberately unit-erased: by the time a value reaches a table
// cell it is just a number under a labeled axis.
type Series struct {
	Name   string
	Points []SeriesPoint
}

// SampleCDF evaluates the ECDF at each x in grid, producing a figure line.
func (e *ECDF[T]) SampleCDF(name string, grid []T) Series {
	s := Series{Name: name, Points: make([]SeriesPoint, len(grid))}
	for i, x := range grid {
		s.Points[i] = SeriesPoint{X: float64(x), Y: e.P(x)}
	}
	return s
}

// SampleCCDF evaluates the CCDF at each x in grid.
func (e *ECDF[T]) SampleCCDF(name string, grid []T) Series {
	s := Series{Name: name, Points: make([]SeriesPoint, len(grid))}
	for i, x := range grid {
		s.Points[i] = SeriesPoint{X: float64(x), Y: e.CCDF(x)}
	}
	return s
}

// LinearGrid returns n+1 evenly spaced values covering [lo, hi]. Call
// sites with untyped-constant bounds must instantiate explicitly, e.g.
// LinearGrid[units.Millis](0, 200, 20).
func LinearGrid[T ~float64](lo, hi T, n int) []T {
	if n < 1 {
		n = 1
	}
	out := make([]T, n+1)
	step := float64(hi-lo) / float64(n)
	for i := range out {
		out[i] = T(float64(lo) + float64(i)*step)
	}
	return out
}

// LogGrid returns n+1 logarithmically spaced values covering [lo, hi],
// lo > 0. Figures 2, 4 and 8 of the paper use log-scale distance axes.
func LogGrid[T ~float64](lo, hi T, n int) []T {
	if n < 1 {
		n = 1
	}
	out := make([]T, n+1)
	llo, lhi := math.Log(float64(lo)), math.Log(float64(hi))
	step := (lhi - llo) / float64(n)
	for i := range out {
		out[i] = T(math.Exp(llo + float64(i)*step))
	}
	return out
}
