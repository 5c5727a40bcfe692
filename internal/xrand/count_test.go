package xrand

import (
	"math"
	"testing"
)

// referenceCount is the count draw's exact expression as the simulator
// wrote it before Count: the day's log-normal noise evaluated with
// math.Log, math.Sqrt and math.Exp, the rate scaled by it, and the
// fraction rounded up when the uniform r falls below it.
func referenceCount(p Polar, scale, sigma, r float64) int {
	noise := math.Exp(0 + sigma*(p.u*math.Sqrt(-2*math.Log(p.q)/p.q)))
	n := scale * noise
	q := int(n)
	if r < n-float64(q) {
		q++
	}
	return q
}

// countSigma is the daily noise's sigma in the simulator's count draw,
// and countVolumeSigma the sigma of the generator's per-client volume.
const (
	countSigma       = 1.1
	countVolumeSigma = 2.0
)

// TestCountMatchesExact pins Count to the exact expression over 10^7
// counts: a million (variate, r, volume) draws, with the volume from the
// generator's log-normal, each at QueriesPerVolume 1, 10, 22, 600 and
// 1000 and at the weekday and weekend factors; then every draw of a
// further 20k at extreme volumes. It also checks that the kernels decide
// nearly every count, so the fast path cannot silently stop running.
func TestCountMatchesExact(t *testing.T) {
	perVolume := []float64{1, 10, 22, 600, 1000}
	factors := []float64{1, 0.8}
	s, vs := New(27), New(28)
	var counts, fallbacks int
	check := func(p Polar, scale, r float64) {
		counts++
		want := referenceCount(p, scale, countSigma, r)
		if got := p.Count(scale, countSigma, r); got != want {
			t.Fatalf("Polar{u: %v, q: %v}.Count(%v, %v, %v) = %d, exact expression %d",
				p.u, p.q, scale, countSigma, r, got, want)
		}
		if _, ok := p.countFast(scale, countSigma, r); !ok {
			fallbacks++
		}
	}
	for i := 0; i < 1_000_000; i++ {
		p := s.Polar()
		r := s.Float64()
		v := vs.LogNormal(0, countVolumeSigma)
		for _, pv := range perVolume {
			for _, f := range factors {
				check(p, v*pv*f, r)
			}
		}
	}
	if share := float64(fallbacks) / float64(counts); share > 0.003 {
		t.Fatalf("the exact expression decided %d of %d counts (%.3f%%); the kernels should decide all but ~0.1%%",
			fallbacks, counts, 100*share)
	} else {
		t.Logf("the exact expression decided %d of %d counts (%.3f%%)", fallbacks, counts, 100*share)
	}
	extremes := []float64{
		0, 0x1p-1074, 1e-300, 1e-30, 1e-6,
		math.Exp(-countVolumeSigma * MaxNorm), math.Exp(countVolumeSigma * MaxNorm),
		1e12, 0x1p50, 1e16, 0x1p62, 1e300, math.Inf(1),
	}
	for i := 0; i < 20_000; i++ {
		p := s.Polar()
		r := s.Float64()
		for _, v := range extremes {
			for _, pv := range perVolume {
				check(p, v*pv, r)
			}
		}
	}
}

// TestCountFallsBackAtThresholds builds the counts the kernels cannot
// settle and checks that Count hands them to the exact expression and
// gets its answer: a rate whose n lies within an ulp of a rounding
// threshold k+r, and a variate whose q sits at the ln q cut-off.
func TestCountFallsBackAtThresholds(t *testing.T) {
	s := New(31)
	near := 0
	for i := 0; i < 200_000; i++ {
		p := s.Polar()
		r := s.Float64()
		noise := p.LogNormal(0, countSigma)
		k := float64(i % 5000)
		target := k + r
		// The scale that lands n on the threshold, nudged until n is
		// within an ulp of it.
		scale := target / noise
		for j := 0; j < 4 && scale*noise != target; j++ {
			if scale*noise < target {
				scale = math.Nextafter(scale, math.Inf(1))
			} else {
				scale = math.Nextafter(scale, 0)
			}
		}
		if math.Abs(scale*noise-target) > ulp(target) {
			continue
		}
		near++
		want := referenceCount(p, scale, countSigma, r)
		if _, ok := p.countFast(scale, countSigma, r); ok {
			t.Fatalf("Polar{u: %v, q: %v}: the kernels decided scale %v at r %v, where n %v lies within an ulp of the threshold %v",
				p.u, p.q, scale, r, scale*noise, target)
		}
		if got := p.Count(scale, countSigma, r); got != want {
			t.Fatalf("Polar{u: %v, q: %v}.Count(%v, %v, %v) = %d at a threshold, exact expression %d",
				p.u, p.q, scale, countSigma, r, got, want)
		}
	}
	if near < 100_000 {
		t.Fatalf("only %d of 200000 rates landed within an ulp of their threshold", near)
	}

	// q at the cut-off: where the kernel's ln q lies just above
	// −countMinLog Count falls back, and just below it the kernels decide
	// a rate far from any threshold.
	above, below := math.Exp(-countMinLog), math.Exp(-countMinLog)
	for logKernel(above) <= -countMinLog {
		above = math.Nextafter(above, 1)
	}
	for logKernel(below) > -countMinLog {
		below = math.Nextafter(below, 0)
	}
	for _, c := range []struct {
		q      float64
		wantOK bool
	}{
		{above, false},
		{(1 + above) / 2, false},
		{math.Nextafter(1, 0), false},
		{below, true},
	} {
		for _, frac := range []float64{-0.9, -0.3, 0, 0.5, 0.99} {
			p := Polar{u: frac * math.Sqrt(c.q), q: c.q}
			for _, r := range []float64{0, 0.25, 0.5, 0.75} {
				scale := (22.5 + r) / p.LogNormal(0, countSigma)
				want := referenceCount(p, scale, countSigma, r)
				if _, ok := p.countFast(scale, countSigma, r); ok != c.wantOK {
					t.Fatalf("q %v (ln q %v): countFast decided = %v, want %v", c.q, math.Log(c.q), ok, c.wantOK)
				}
				if got := p.Count(scale, countSigma, r); got != want {
					t.Fatalf("Polar{u: %v, q: %v}.Count(%v, %v, %v) = %d at the cut-off, exact expression %d",
						p.u, p.q, scale, countSigma, r, got, want)
				}
			}
		}
	}
}

// ulp is the spacing of float64 values at x.
func ulp(x float64) float64 { return math.Nextafter(math.Abs(x), math.Inf(1)) - math.Abs(x) }

// TestLogKernelError sweeps the log kernel over every binade of the
// positive normal floats, at a grid of mantissas and at both ends of
// every table interval, where the series runs furthest, and checks that
// its worst error is at least 100 times inside logKernelErr.
func TestLogKernelError(t *testing.T) {
	var worst, worstX float64
	probe := func(x float64) {
		if d := math.Abs(logKernel(x) - math.Log(x)); d > worst {
			worst, worstX = d, x
		}
	}
	for e := -1022; e <= 1023; e++ {
		for i := 0; i < 1024; i++ {
			probe(math.Ldexp(1+float64(i)/1024+0x1p-40, e))
		}
		for j := 0; j <= 1<<logTableBits; j++ {
			m := 1 + float64(j)/(1<<logTableBits)
			if j > 0 {
				probe(math.Ldexp(math.Nextafter(m, 0), e))
			}
			if j < 1<<logTableBits {
				probe(math.Ldexp(m, e))
			}
		}
	}
	t.Logf("log kernel: worst absolute error %.3g at x = %v; stated bound %.3g", worst, worstX, float64(logKernelErr))
	if 100*worst > logKernelErr {
		t.Fatalf("log kernel's worst error %.3g at %v is not 100 times inside logKernelErr %.3g", worst, worstX, float64(logKernelErr))
	}
}

// TestExpKernelError sweeps the exp kernel over its whole domain, on a
// grid and at every midpoint between table steps, where |r| is largest,
// and checks that its worst relative error is at least 100 times inside
// expKernelErr.
func TestExpKernelError(t *testing.T) {
	var worst, worstT float64
	probe := func(x float64) {
		if d := math.Abs(expKernel(x)/math.Exp(x) - 1); d > worst {
			worst, worstT = d, x
		}
	}
	const steps = 1 << 22
	for i := 0; i <= steps; i++ {
		probe(-expKernelMaxArg + 2*expKernelMaxArg*float64(i)/steps)
	}
	step := math.Ln2 / (1 << expTableBits)
	for k := math.Ceil(-expKernelMaxArg / step); k*step <= expKernelMaxArg; k++ {
		for _, x := range []float64{(k - 0.5) * step, (k + 0.5) * step} {
			for _, y := range []float64{math.Nextafter(x, 0), x, math.Nextafter(x, math.Inf(1))} {
				if math.Abs(y) <= expKernelMaxArg {
					probe(y)
				}
			}
		}
	}
	t.Logf("exp kernel: worst relative error %.3g at t = %v; stated bound %.3g", worst, worstT, float64(expKernelErr))
	if 100*worst > expKernelErr {
		t.Fatalf("exp kernel's worst error %.3g at %v is not 100 times inside expKernelErr %.3g", worst, worstT, float64(expKernelErr))
	}
}

// FuzzPolarCount checks Count against the exact expression on variates,
// rates and draws built from raw bits: (u, v) as the pair, kept only when
// q = u²+v² lies in (0, 1) as the rejection loop requires, and every
// scale and r as given. A second rate per input lands n within a few ulps
// of a rounding threshold, where only the fallback gives the exact count.
func FuzzPolarCount(f *testing.F) {
	for _, c := range [][4]float64{
		{0.3, 0.4, 22, 0.5},
		{-0.9, 0.1, 1e-9, 0},
		{0x1p-52, 0, 3e16, 0.999},
		{0.0316, 0, 1000, 0.25},
		{0.6, -0.79, 1e300, 0.75},
		{1e-160, 1e-160, 1, 0.5},
	} {
		f.Add(math.Float64bits(c[0]), math.Float64bits(c[1]), math.Float64bits(c[2]), math.Float64bits(c[3]))
	}
	f.Fuzz(func(t *testing.T, ub, vb, sb, rb uint64) {
		u, v := math.Float64frombits(ub), math.Float64frombits(vb)
		q := u*u + v*v
		if !(q > 0 && q < 1) {
			return
		}
		p := Polar{u: u, q: q}
		scale, r := math.Float64frombits(sb), math.Float64frombits(rb)
		if got, want := p.Count(scale, countSigma, r), referenceCount(p, scale, countSigma, r); got != want {
			t.Fatalf("Polar{u: %v, q: %v}.Count(%v, %v, %v) = %d, exact expression %d", u, q, scale, countSigma, r, got, want)
		}
		// The threshold k + r01 with k from the scale's high bits and r01
		// a Float64 draw from r's.
		r01 := float64(rb>>11) / (1 << 53)
		noise := p.LogNormal(0, countSigma)
		if !(noise > 0 && noise < math.Inf(1)) {
			return
		}
		edge := (float64(sb>>40) + r01) / noise
		if got, want := p.Count(edge, countSigma, r01), referenceCount(p, edge, countSigma, r01); got != want {
			t.Fatalf("Polar{u: %v, q: %v}.Count(%v, %v, %v) = %d near a threshold, exact expression %d", u, q, edge, countSigma, r01, got, want)
		}
	})
}
