package stats

import (
	"math"
	"testing"
)

// sketchSamples is a fixed, shuffled-looking sample set spanning the
// [64, 8192) range plus out-of-range values.
func sketchSamples() []float64 {
	xs := make([]float64, 0, 500)
	v := 1.0
	for i := 0; i < 500; i++ {
		// Deterministic low-discrepancy walk over [1, 20000).
		v = math.Mod(v*1.6180339887498949+137.5, 20000)
		xs = append(xs, v+1)
	}
	return xs
}

func TestQuantileSketchQuantileWithinOneBin(t *testing.T) {
	xs := sketchSamples()
	sk, err := NewLogQuantileSketch(1.0, 32768.0, 256)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range xs {
		sk.Add(x)
	}
	if sk.N() != uint64(len(xs)) {
		t.Fatalf("N = %d, want %d", sk.N(), len(xs))
	}
	exact, err := NewECDF(xs)
	if err != nil {
		t.Fatal(err)
	}
	ratio := math.Pow(32768, 1.0/256) // one bin's width
	for _, q := range []float64{0.1, 0.25, 0.5, 0.75, 0.9} {
		got, want := sk.Quantile(q), exact.Quantile(q)
		if got < want/ratio || got > want*ratio*ratio {
			t.Fatalf("quantile %v: sketch %v not within one bin of exact %v", q, got, want)
		}
	}
}

func TestQuantileSketchOrderAndMergeInvariance(t *testing.T) {
	xs := sketchSamples()
	build := func(order []float64) *QuantileSketch[float64] {
		sk, err := NewLogQuantileSketch(1.0, 32768.0, 128)
		if err != nil {
			t.Fatal(err)
		}
		for _, x := range order {
			sk.Add(x)
		}
		return sk
	}
	fwd := build(xs)
	rev := make([]float64, len(xs))
	for i, x := range xs {
		rev[len(xs)-1-i] = x
	}
	bwd := build(rev)
	// Merge two halves in both orders.
	a1, a2 := build(xs[:100]), build(xs[100:])
	if _, err := a1.MergeEncoded(a2.Encode(nil)); err != nil {
		t.Fatal(err)
	}
	b2, b1 := build(xs[100:]), build(xs[:100])
	if _, err := b2.MergeEncoded(b1.Encode(nil)); err != nil {
		t.Fatal(err)
	}
	grid := LogGrid[float64](1, 32768, 30)
	for _, x := range grid {
		p := fwd.P(x)
		for name, sk := range map[string]*QuantileSketch[float64]{"reversed": bwd, "mergeAB": a1, "mergeBA": b2} {
			if sk.P(x) != p {
				t.Fatalf("%s: P(%v) = %v, want %v (must be bit-identical)", name, x, sk.P(x), p)
			}
		}
	}
}

func TestQuantileSketchBoundsAndErrors(t *testing.T) {
	if _, err := NewLogQuantileSketch(0.0, 10.0, 4); err == nil {
		t.Fatal("log sketch with lo=0 should fail")
	}
	if _, err := NewLogQuantileSketch(10.0, 10.0, 4); err == nil {
		t.Fatal("empty range should fail")
	}
	if _, err := NewLogQuantileSketch(1.0, 10.0, 0); err == nil {
		t.Fatal("zero bins should fail")
	}
	a, err := NewLogQuantileSketch(1.0, 100.0, 8)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewLogQuantileSketch(1.0, 100.0, 16)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.MergeEncoded(b.Encode(nil)); err == nil {
		t.Fatal("merging different layouts should fail")
	}

	// Out-of-range samples land in the clamping bins.
	sk, err := NewLogQuantileSketch(1.0, 1024.0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if sk.P(50) != 0 {
		t.Fatal("empty sketch should report P = 0")
	}
	sk.Add(0.5)
	sk.Add(2000)
	if got := sk.Quantile(0.25); got != 1 {
		t.Fatalf("underflow quantile = %v, want lo (1)", got)
	}
	if got := sk.Quantile(1); got != 1024 {
		t.Fatalf("overflow quantile = %v, want hi (1024)", got)
	}
	if got := sk.P(1024); got != 1 {
		t.Fatalf("P(hi) = %v, want 1", got)
	}
	s := sk.SampleCDF("line", []float64{1, 50, 1024})
	if len(s.Points) != 3 || s.Points[0].Y != 0.5 || s.Points[2].Y != 1 {
		t.Fatalf("SampleCDF = %+v", s.Points)
	}
}

// TestQuantileSketchPAtHiCountsOverflow pins P(hi) = 1 and Quantile(1) =
// hi, with a sample in the underflow, the last regular and the overflow
// bin, over log layouts that include every [1, 100) layout of 1 to 256
// bins and Figure 8's own (62.5, 16000, 128 bins). In those the computed
// top edge, exp(log lo + n·(log hi − log lo)/n), rounds above hi.
func TestQuantileSketchPAtHiCountsOverflow(t *testing.T) {
	type layout struct {
		lo, hi float64
		nbins  int
	}
	layouts := []layout{{62.5, 16000, 128}, {1, 1024, 10}, {1, 32768, 256}}
	for n := 1; n <= 256; n++ {
		layouts = append(layouts, layout{1, 100, n})
	}
	for _, l := range layouts {
		sk, err := NewLogQuantileSketch(l.lo, l.hi, l.nbins)
		if err != nil {
			t.Fatal(err)
		}
		sk.Add(l.lo / 2)                // underflow
		sk.Add(math.Nextafter(l.hi, 0)) // the last regular bin
		sk.Add(l.hi)                    // overflow
		if got := sk.P(l.hi); got != 1 {
			t.Fatalf("%+v: P(hi) = %v, want 1 (the overflow bin counted)", l, got)
		}
		if got := sk.Quantile(1); got != l.hi {
			t.Fatalf("%+v: Quantile(1) = %v, want hi", l, got)
		}
	}
}
