// Package xrand provides deterministic, hash-derived random substreams.
//
// The simulator needs randomness that is (a) reproducible from a single
// seed and (b) stable per entity: the latency noise a client prefix sees on
// day 12 must not depend on how many other prefixes were simulated before
// it. xrand derives independent streams by hashing a root seed together
// with arbitrary labels and integers (e.g. "latency", prefixID, day) using
// SplitMix64-style mixing, and seeds a small PCG-like generator from the
// digest.
package xrand

import (
	"math"
	"math/bits"
)

// Stream is a deterministic pseudo-random stream. The zero value is a valid
// stream seeded with 0. Stream is not safe for concurrent use; derive one
// stream per goroutine or per entity from DeriveSeed.
type Stream struct {
	state uint64
	inc   uint64
}

// New returns a stream seeded from seed.
func New(seed uint64) *Stream {
	s := &Stream{}
	s.Reseed(seed)
	return s
}

// Reseed reinitializes s in place to the exact state New(seed) produces.
// It lets hot paths keep one stack-allocated Stream value and re-point it
// at successive substreams instead of heap-allocating a *Stream per
// sample: `var s Stream; s.Reseed(seed)` is equivalent to `s := *New(seed)`.
func (s *Stream) Reseed(seed uint64) {
	s.state = mix64(seed)
	s.inc = mix64(seed^0x9e3779b97f4a7c15) | 1
	s.Uint64() // warm up so similar seeds diverge immediately
}

// mix64 is the SplitMix64 finalizer: a bijective mixing of 64-bit values
// with good avalanche behaviour.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// hashLabel folds a string label into a 64-bit value.
func hashLabel(label string) uint64 {
	// FNV-1a, then mixed. FNV alone has weak high bits.
	const offset64 = 14695981039346656037
	const prime64 = 1099511628211
	h := uint64(offset64)
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= prime64
	}
	return mix64(h)
}

// DeriveSeed combines a root seed, a label, and any number of integer keys
// into a new seed. It is the basis for per-entity substreams: the label
// starts the derivation and each key extends it (Extend), in order.
func DeriveSeed(root uint64, label string, keys ...uint64) uint64 {
	h := mix64(root ^ hashLabel(label))
	for _, k := range keys {
		h = Extend(h, k)
	}
	return h
}

// Extend is the package's one derivation step: it extends a derived seed
// by one more key. Every derivation is its label's seed extended by each
// key in turn, so DeriveSeedL2(root, l, a, b) == Extend(DeriveSeedL1(root,
// l, a), b), and a loop over one entity's days can derive the entity's
// prefix once and extend it by each day.
func Extend(h, k uint64) uint64 { return mix64(h ^ mix64(k)) }

// Label is a precomputed label hash for the non-variadic DeriveSeed fast
// paths. Hashing a label string costs a byte loop per call; hot paths that
// derive millions of substreams per run hash each label once at package
// init (`var labelJitter = xrand.NewLabel("jitter")`) and use the L-suffix
// derivations below, which are guaranteed to produce the same seeds as
// DeriveSeed/Substream with the equivalent string label.
type Label uint64

// NewLabel precomputes the hash of a label string.
func NewLabel(label string) Label { return Label(hashLabel(label)) }

// DeriveSeedL is the zero-key fast path of DeriveSeed: identical output,
// no variadic slice, label hashed ahead of time.
func DeriveSeedL(root uint64, label Label) uint64 {
	return mix64(root ^ uint64(label))
}

// DeriveSeedL1 derives a seed from one key without variadic overhead.
func DeriveSeedL1(root uint64, label Label, k1 uint64) uint64 {
	return Extend(DeriveSeedL(root, label), k1)
}

// DeriveSeedL2 derives a seed from two keys without variadic overhead.
func DeriveSeedL2(root uint64, label Label, k1, k2 uint64) uint64 {
	return Extend(Extend(DeriveSeedL(root, label), k1), k2)
}

// DeriveSeedL3 derives a seed from three keys without variadic overhead.
func DeriveSeedL3(root uint64, label Label, k1, k2, k3 uint64) uint64 {
	return Extend(Extend(Extend(DeriveSeedL(root, label), k1), k2), k3)
}

// Substream returns a stream for (label, keys) derived from a root seed
// without constructing an intermediate stream.
func Substream(root uint64, label string, keys ...uint64) *Stream {
	return New(DeriveSeed(root, label, keys...))
}

// Uint64 returns the next 64 random bits.
func (s *Stream) Uint64() uint64 {
	// PCG-XSH-RR style on 64-bit state; simple and fast, quality is plenty
	// for simulation noise.
	old := s.state
	s.state = old*6364136223846793005 + s.inc
	xorshifted := ((old >> 18) ^ old) >> 27
	rot := uint(old >> 59)
	out := bits.RotateLeft64(xorshifted, -int(rot))
	return mix64(out)
}

// Float64 returns a uniform float64 in [0, 1).
func (s *Stream) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (s *Stream) Intn(n int) int {
	if n <= 0 {
		//lint:ignore nopanic mirrors math/rand.Intn's documented contract for drop-in compatibility
		panic("xrand: Intn with non-positive n")
	}
	return int(s.Uint64() % uint64(n))
}

// Bool returns true with probability p.
func (s *Stream) Bool(p float64) bool {
	return s.Float64() < p
}

// LogNormal returns a log-normal variate with the given location mu and
// scale sigma of the underlying normal.
func (s *Stream) LogNormal(mu, sigma float64) float64 { return s.Polar().LogNormal(mu, sigma) }

// Polar is one accepted pair of the Marsaglia polar method: what its
// rejection loop leaves once the stream has moved past a standard
// normal's draws. Splitting the loop from the evaluation lets a caller
// advance a stream past a normal it may never read, paying for the
// uniform draws alone and for the Log and Sqrt only if it does.
type Polar struct {
	u, q float64
}

// Polar runs the polar method's rejection loop, drawing Float64 pairs
// until one falls inside the unit disc.
func (s *Stream) Polar() Polar {
	// Rejects ~21% of pairs.
	for {
		u := 2*s.Float64() - 1
		v := 2*s.Float64() - 1
		q := u*u + v*v
		if q > 0 && q < 1 {
			return Polar{u: u, q: q}
		}
	}
}

// MaxNorm bounds |Norm| over every pair the rejection loop can accept.
// Float64 returns multiples of 2⁻⁵³, so u and v are multiples of 2⁻⁵² and
// a positive q = u²+v² is at least 2⁻¹⁰⁴. As u² ≤ q, |Norm| =
// |u|·√(−2 ln q/q) ≤ √(−2 ln q) ≤ √(208·ln 2) = 12.0072734.... The
// constant rounds that up past the few ulps of Norm's float evaluation.
const MaxNorm = 12.00728

// Norm is the standard normal variate of the pair.
func (p Polar) Norm() float64 { return p.u * math.Sqrt(-2*math.Log(p.q)/p.q) }

// LogNormal is LogNormal's result from the same draws.
func (p Polar) LogNormal(mu, sigma float64) float64 { return math.Exp(mu + sigma*p.Norm()) }

// Exp returns an exponential variate with the given mean. Mean must be > 0.
func (s *Stream) Exp(mean float64) float64 {
	u := s.Float64()
	if u >= 1 {
		u = math.Nextafter(1, 0)
	}
	return -mean * math.Log(1-u)
}

// WeightedChoice returns an index in [0, len(weights)) with probability
// proportional to weights[i]. Weights must be non-negative with a positive
// sum; otherwise it returns -1.
func (s *Stream) WeightedChoice(weights []float64) int {
	var total float64
	for _, w := range weights {
		if w < 0 {
			return -1
		}
		total += w
	}
	if total <= 0 {
		return -1
	}
	target := s.Float64() * total
	var acc float64
	for i, w := range weights {
		acc += w
		if target < acc {
			return i
		}
	}
	return len(weights) - 1
}

// Picker is WeightedChoice over a weight vector fixed at construction.
// WeightedChoice re-sums every weight and scans linearly on each call; a
// Picker keeps the in-order running sums and binary-searches them. Each
// sum is the same float WeightedChoice's loop accumulates, and the sums
// never decrease, so the first one above the target is the index
// WeightedChoice returns, from the same single Float64 draw.
type Picker struct {
	cum []float64 // cum[i] = weights[0] + … + weights[i], summed in order
}

// NewPicker precomputes the running sums of weights. It reports false
// where WeightedChoice would return -1: a negative weight, or a sum that
// is not positive.
func NewPicker(weights []float64) (Picker, bool) {
	cum := make([]float64, len(weights))
	var total float64
	for i, w := range weights {
		if w < 0 {
			return Picker{}, false
		}
		total += w
		cum[i] = total
	}
	if total <= 0 {
		return Picker{}, false
	}
	return Picker{cum: cum}, true
}

// Pick draws one Float64 from s and returns the index WeightedChoice
// would return for the picker's weights from the same draw.
func (p Picker) Pick(s *Stream) int { return p.Index(s.Float64()) }

// Index returns the index Pick returns when its Float64 draw is u: the
// first i with u*total < cum[i] — WeightedChoice's `target < acc` — or
// the last index if there is none.
func (p Picker) Index(u float64) int {
	target := u * p.cum[len(p.cum)-1]
	lo, hi := 0, len(p.cum)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if target < p.cum[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo == len(p.cum) {
		return lo - 1
	}
	return lo
}
