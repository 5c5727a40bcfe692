package xrand

import "math"

// This file decides Count, a probabilistically rounded log-normal count,
// from two table kernels for ln and exp that are cheaper than math.Log
// and math.Exp, and falls back to the exact expression when they cannot
// settle the integer. The output is the exact expression's, bit for bit:
// the kernels only ever narrow down which integer it is.
//
// The argument, for n := scale * p.LogNormal(0, sigma) and r a uniform
// draw in [0, 1): the count roundAt(n, r) is ⌊n⌋ plus one when
// r < n-⌊n⌋, which for n ≥ 0 is ⌈n − r⌉ in real arithmetic and so never
// decreases as n grows. If lo ≤ n ≤ hi and roundAt(lo, r) ==
// roundAt(hi, r), that is roundAt(n, r). Count computes an estimate of n
// from the kernels and widens it to [lo, hi] by an error bound that covers
// the kernels' error and every rounding of both evaluations. Both
// roundAt calls are exact (x − float64(int(x)) is exact for
// −1 < x < 2^63), so no margin is needed there.
//
// The error budget, as relative error in n. Write t* = sigma·u·√(−2 ln q/q)
// in real arithmetic.
//   - The exact path's t is t*·(1+η) with |η| < 5·2⁻⁵³: half of math.Log's
//     1 ulp through the square root, the division's half ulp halved, and
//     the Sqrt, u·s and sigma·N roundings. Its Exp adds 1 ulp, its last
//     product half an ulp.
//   - The fast path's t is t*·(1+η') with |η'| < ½·logKernelErr/|ln q| +
//     4·2⁻⁵³; its n is within expKernelErr plus half an ulp of
//     scale·exp(t).
//   - So |ln(n/n̂)| < D = |t̂|·(½·logKernelErr/|ln q| + 2⁻⁴⁹) +
//     expKernelErr + 2⁻⁵⁰, and the tolerance 2·D covers e^D − 1, the
//     rounding of the tolerance itself and of lo and hi. It divides by
//     the kernel's |ln q| with the whole logKernelErr, which also covers
//     |ln q| ≥ |kernel ln q| − logKernelErr past the cut-off. An absolute
//     2⁻¹⁰⁰⁰ covers a product that underflows.
//
// The kernels' stated errors, logKernelErr and expKernelErr, hold at
// least 100 times their measured worst (TestLogKernelError,
// TestExpKernelError), so a platform whose math.Log or math.Exp is off
// by several ulps still falls well inside the tolerance.
//
// Count falls back to the exact expression when
//   - ln q > −countMinLog: the log error is absolute, so the relative
//     error of −2 ln q/q grows without bound as q → 1;
//   - q is subnormal, or t lies outside the exp kernel's domain;
//   - hi ≥ countMaxFast (or is not finite), where int(n) and the margin
//     stop meaning anything;
//   - scale is negative or NaN; or
//   - [lo, hi] straddles one of roundAt's thresholds.
//
// On the simulator's draws that is ~0.1% of calls, nearly all of them
// the ln q cut-off (P(q > e^−0.001) ≈ 0.1%, as q is uniform on (0, 1)).

// Count's fallback cut-offs.
const (
	// countMinLog is the cut-off on −ln q below which Count falls back.
	countMinLog = 1e-3
	// countMaxFast bounds the counts the fast path decides.
	countMaxFast = 0x1p50
)

// Count returns the probabilistically rounded count of a rate of
// scale·LogNormal(0, sigma) at the uniform draw r: with
// n := scale * p.LogNormal(0, sigma), it returns ⌊n⌋, plus one when
// r < n−⌊n⌋. The result is that float64 expression's, bit for bit, for
// every scale and r; scale is expected non-negative. Most calls decide it
// from the ln and exp table kernels above; the rest evaluate the
// expression itself.
//
//perf:hotpath
func (p Polar) Count(scale, sigma, r float64) int {
	if k, ok := p.countFast(scale, sigma, r); ok {
		return k
	}
	// The exact expression, the one place it is written.
	return roundAt(scale*p.LogNormal(0, sigma), r)
}

// countFast is Count from the kernels. It reports false when the kernels
// cannot settle the count, and Count must evaluate the exact expression.
//
//perf:hotpath
func (p Polar) countFast(scale, sigma, r float64) (int, bool) {
	if !(p.q >= 0x1p-1022) || !(scale >= 0) {
		return 0, false
	}
	lq := logKernel(p.q)
	if !(lq <= -countMinLog) {
		return 0, false
	}
	t := sigma * (p.u * math.Sqrt(-2*lq/p.q))
	at := math.Abs(t)
	if !(at <= expKernelMaxArg) {
		return 0, false
	}
	n := scale * expKernel(t)
	tol := at*(logKernelErr/-lq+0x1p-48) + 2*expKernelErr + 0x1p-49
	d := n*tol + 0x1p-1000
	lo, hi := n-d, n+d
	if !(hi < countMaxFast) {
		return 0, false
	}
	k := roundAt(lo, r)
	return k, k == roundAt(hi, r)
}

// roundAt rounds x to ⌊x⌋ or ⌊x⌋+1, up when r < x−⌊x⌋: a draw r uniform
// in [0, 1) rounds x up with probability equal to its fraction. For
// −1 < x < 2^63 the subtraction is exact, and roundAt never decreases as
// x grows, whatever r is: on (−1, 1) it is [r < x], and for r in [0, 1)
// and x ≥ 0 it is ⌈x − r⌉. countFast's lo ≥ −2⁻¹⁰⁰⁰ stays in that range.
func roundAt(x, r float64) int {
	k := int(x)
	if r < x-float64(k) {
		k++
	}
	return k
}

// logKernelErr bounds |logKernel(x) − ln x| over positive normal x. The
// derivation gives under 5e-13: the series' truncation |r|⁵/5/(1−|r|) <
// 1.9e-13 with |r| ≤ 2⁻⁸, the rounding of r (1.2e-16, one ulp of m·invc
// near 1), the 1-ulp table entry, and the roundings of e·ln2 and the sum
// (under 3·2⁻⁵³·|e·ln2|, < 2.4e-13 at e = −1022). The constant keeps over
// 100 times the measured worst.
const logKernelErr = 1e-10

// logTableBits is the number of leading mantissa bits that index
// logTable.
const logTableBits = 7

// logTable[j] holds, for the mantissa interval [1+j/128, 1+(j+1)/128),
// invc ≈ 1/c at its midpoint c, and logc = −ln(invc) of that stored
// invc, so that ln m = logc + ln(1 + (m·invc − 1)) with |m·invc − 1| ≤
// 2⁻⁸.
var logTable = func() (t [1 << logTableBits]struct{ invc, logc float64 }) {
	for j := range t {
		c := 1 + (float64(j)+0.5)/(1<<logTableBits)
		t[j].invc = 1 / c
		t[j].logc = -math.Log(t[j].invc)
	}
	return t
}()

// logKernel approximates ln x for a positive normal x to within
// logKernelErr: x = 2^e·m with m in [1, 2), the mantissa's top 7 bits
// pick a table entry, and a 4-term series gives ln(1+r) for the small
// rest.
//
//perf:hotpath
func logKernel(x float64) float64 {
	b := math.Float64bits(x)
	e := int(b>>52) - 1023
	m := math.Float64frombits(b&(1<<52-1) | 1023<<52)
	ent := &logTable[(b>>(52-logTableBits))&(1<<logTableBits-1)]
	r := m*ent.invc - 1
	r2 := r * r
	lp := (r - 0.5*r2) + r2*(r*(1.0/3)-0.25*r2)
	return float64(e)*math.Ln2 + (ent.logc + lp)
}

// expKernelErr bounds |expKernel(t)/e^t − 1| over |t| ≤ expKernelMaxArg.
// The derivation gives under 4.2e-14: the polynomial's truncation
// |r|⁵/120·e^|r| < 3.9e-14 with |r| ≤ ln2/128, the 1-ulp table entry, and
// the roundings of r, the polynomial and the product (under 6·2⁻⁵³). The
// constant keeps over 100 times the measured worst.
const expKernelErr = 1e-11

// expKernelMaxArg is the exp kernel's domain, |t| ≤ 512: e^t stays normal
// and |k| < 2^16, so k·expLn2Hi is exact.
const expKernelMaxArg = 512

// expTableBits is log₂ of the number of steps per octave in expTable.
const expTableBits = 6

// expTable[j] is 2^(j/64).
var expTable = func() (t [1 << expTableBits]float64) {
	for j := range t {
		t[j] = math.Exp2(float64(j) / (1 << expTableBits))
	}
	return t
}()

// expLn2Hi + expLn2Lo is ln2/64, split so that expLn2Hi holds 32
// significant bits (ln2/64's leading bits) and k·expLn2Hi is exact for
// |k| < 2^21.
const (
	expLn2Hi = 0x1.62e42feep-7
	expLn2Lo = math.Ln2/(1<<expTableBits) - expLn2Hi
)

// expKernel approximates e^t for |t| ≤ expKernelMaxArg to within a
// relative expKernelErr: t = k·ln2/64 + r with k the nearest integer to
// t·64/ln2, e^t = 2^(k>>6)·2^((k&63)/64)·e^r, and a degree-4 polynomial
// gives e^r for |r| ≤ ln2/128.
//
//perf:hotpath
func expKernel(t float64) float64 {
	// Adding 1.5·2^52 rounds t·64/ln2 to the nearest integer k, which the
	// sum's low mantissa bits then hold.
	const shift = 0x1.8p52
	kf := t*((1<<expTableBits)/math.Ln2) + shift
	k := int64(math.Float64bits(kf) - math.Float64bits(shift))
	kf -= shift
	r := t - kf*expLn2Hi - kf*expLn2Lo
	r2 := r * r
	ep := (1 + r) + r2*((0.5+r*(1.0/6))+r2*(1.0/24))
	two := math.Float64frombits(uint64(k>>expTableBits+1023) << 52)
	return two * (expTable[k&(1<<expTableBits-1)] * ep)
}
