package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams with equal seeds diverged at draw %d", i)
		}
	}
}

func TestSeedsDiverge(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("streams with different seeds produced %d equal draws", same)
	}
}

func TestDeriveIndependentOfDrawCount(t *testing.T) {
	a := New(9)
	a.Uint64()
	a.Uint64()
	// Substream derivation must not depend on how many draws happened on an
	// unrelated stream constructed from the same root seed.
	x := Substream(9, "x", 1).Uint64()
	y := Substream(9, "x", 1).Uint64()
	if x != y {
		t.Fatal("Substream is not stable")
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(3)
	for i := 0; i < 10000; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	s := New(4)
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		sum += s.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean %v far from 0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	s := New(5)
	for n := 1; n < 50; n++ {
		for i := 0; i < 100; i++ {
			v := s.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestNormFloat64Moments(t *testing.T) {
	s := New(6)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := s.Polar().Norm()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean %v far from 0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Fatalf("normal variance %v far from 1", variance)
	}
}

// referenceNormFloat64 is the textbook Marsaglia polar method as one
// loop: the rejection loop and the evaluation together.
func referenceNormFloat64(s *Stream) float64 {
	for {
		u := 2*s.Float64() - 1
		v := 2*s.Float64() - 1
		q := u*u + v*v
		if q > 0 && q < 1 {
			return u * math.Sqrt(-2*math.Log(q)/q)
		}
	}
}

// TestPolarMatchesNormFloat64 pins the split draw as exact: over a
// million variates, Polar followed by Norm (and by LogNormal) returns the
// one-loop polar method's bits and leaves the stream in its state, so a
// caller that keeps the pair and never evaluates it reaches its next
// draw at the same position.
func TestPolarMatchesNormFloat64(t *testing.T) {
	ref, logs, pairs := New(11), New(11), New(11)
	for i := 0; i < 1_000_000; i++ {
		want := referenceNormFloat64(ref)
		if v, w := logs.LogNormal(0.3, 1.7), math.Exp(0.3+1.7*want); math.Float64bits(v) != math.Float64bits(w) {
			t.Fatalf("draw %d: LogNormal %v, from the reference %v", i, v, w)
		}
		p := pairs.Polar()
		if v := p.Norm(); math.Float64bits(v) != math.Float64bits(want) {
			t.Fatalf("draw %d: Polar().Norm() %v, one-loop reference %v", i, v, want)
		}
		if *logs != *ref || *pairs != *ref {
			t.Fatalf("draw %d: stream states diverged from the reference", i)
		}
	}
}

func TestLogNormalPositive(t *testing.T) {
	s := New(8)
	for i := 0; i < 10000; i++ {
		if v := s.LogNormal(1, 0.5); v <= 0 {
			t.Fatalf("LogNormal returned non-positive %v", v)
		}
	}
}

func TestExpMean(t *testing.T) {
	s := New(10)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += s.Exp(5)
	}
	mean := sum / n
	if math.Abs(mean-5) > 0.1 {
		t.Fatalf("Exp mean %v far from 5", mean)
	}
}

func TestWeightedChoiceDistribution(t *testing.T) {
	s := New(13)
	weights := []float64{1, 2, 7}
	counts := make([]int, 3)
	const n = 100000
	for i := 0; i < n; i++ {
		idx := s.WeightedChoice(weights)
		if idx < 0 || idx > 2 {
			t.Fatalf("WeightedChoice out of range: %d", idx)
		}
		counts[idx]++
	}
	if f := float64(counts[2]) / n; math.Abs(f-0.7) > 0.02 {
		t.Fatalf("heavy weight drawn with frequency %v, want ~0.7", f)
	}
	if f := float64(counts[0]) / n; math.Abs(f-0.1) > 0.02 {
		t.Fatalf("light weight drawn with frequency %v, want ~0.1", f)
	}
}

func TestWeightedChoiceDegenerate(t *testing.T) {
	s := New(14)
	if got := s.WeightedChoice(nil); got != -1 {
		t.Fatalf("WeightedChoice(nil) = %d, want -1", got)
	}
	if got := s.WeightedChoice([]float64{0, 0}); got != -1 {
		t.Fatalf("WeightedChoice(zeros) = %d, want -1", got)
	}
	if got := s.WeightedChoice([]float64{1, -1}); got != -1 {
		t.Fatalf("WeightedChoice(negative) = %d, want -1", got)
	}
	if got := s.WeightedChoice([]float64{0, 3, 0}); got != 1 {
		t.Fatalf("WeightedChoice singleton = %d, want 1", got)
	}
}

func TestDeriveSeedAvalancheProperty(t *testing.T) {
	// Flipping a single key bit should change the derived seed.
	f := func(root, key uint64) bool {
		a := DeriveSeed(root, "l", key)
		b := DeriveSeed(root, "l", key^1)
		return a != b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestReseedMatchesNew(t *testing.T) {
	for seed := uint64(0); seed < 200; seed++ {
		var s Stream
		s.Reseed(seed)
		want := New(seed)
		for i := 0; i < 20; i++ {
			if got, exp := s.Uint64(), want.Uint64(); got != exp {
				t.Fatalf("seed %d draw %d: Reseed stream %d, New stream %d", seed, i, got, exp)
			}
		}
	}
}

func TestDeriveSeedFastPathsMatchVariadic(t *testing.T) {
	l := NewLabel("fastpath")
	for root := uint64(0); root < 50; root++ {
		k := []uint64{root * 3, root ^ 0xdead, root + 7, root << 5}
		cases := []struct {
			got, want uint64
		}{
			{DeriveSeedL(root, l), DeriveSeed(root, "fastpath")},
			{DeriveSeedL1(root, l, k[0]), DeriveSeed(root, "fastpath", k[0])},
			{DeriveSeedL2(root, l, k[0], k[1]), DeriveSeed(root, "fastpath", k[0], k[1])},
			{DeriveSeedL3(root, l, k[0], k[1], k[2]), DeriveSeed(root, "fastpath", k[0], k[1], k[2])},
			{Extend(DeriveSeedL(root, l), k[0]), DeriveSeed(root, "fastpath", k[0])},
			{Extend(DeriveSeedL1(root, l, k[0]), k[1]), DeriveSeed(root, "fastpath", k[0], k[1])},
			{Extend(DeriveSeedL2(root, l, k[0], k[1]), k[2]), DeriveSeed(root, "fastpath", k[0], k[1], k[2])},
			{Extend(DeriveSeedL3(root, l, k[0], k[1], k[2]), k[3]), DeriveSeed(root, "fastpath", k[0], k[1], k[2], k[3])},
		}
		for i, c := range cases {
			if c.got != c.want {
				t.Fatalf("root %d: fast path %d derived %d, variadic derived %d", root, i, c.got, c.want)
			}
		}
	}
}

// TestSubstreamFastPathZeroAlloc pins the hot derivation path at zero
// heap allocations per sample; the simulation's throughput ceiling
// depends on it (DESIGN.md §11).
func TestSubstreamFastPathZeroAlloc(t *testing.T) {
	l := NewLabel("alloc")
	var s Stream
	var sink uint64
	allocs := testing.AllocsPerRun(200, func() {
		s.Reseed(Extend(DeriveSeedL3(9, l, 1, 2, 3), 4))
		sink += s.Uint64()
	})
	if allocs != 0 {
		t.Fatalf("Reseed+DeriveSeedL3+Extend path allocates %.1f times per run, want 0", allocs)
	}
	_ = sink
}

func BenchmarkUint64(b *testing.B) {
	s := New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = s.Uint64()
	}
}

// BenchmarkSubstream measures the allocation-free substream derivation the
// per-sample hot path uses; ci.sh pins it at 0 allocs/op via the benchjson
// compare gate.
func BenchmarkSubstream(b *testing.B) {
	l := NewLabel("bench")
	var s Stream
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Reseed(DeriveSeedL2(1, l, uint64(i), 42))
		_ = s.Uint64()
	}
}
