package stats

import (
	"math"
	"testing"

	"anycastcdn/internal/xrand"
)

func randSketch(t *testing.T, rs *xrand.Stream, n int) *QuantileSketch[float64] {
	t.Helper()
	s, err := NewLogQuantileSketch[float64](0.5, 4096, 64)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		s.AddWeighted(math.Exp(12*(rs.Float64()-0.4)), rs.Float64()*2)
	}
	return s
}

func sketchesEqual(t *testing.T, a, b *QuantileSketch[float64]) {
	t.Helper()
	if a.n != b.n || math.Float64bits(a.total) != math.Float64bits(b.total) {
		t.Fatalf("counts differ: (n=%d total=%v) vs (n=%d total=%v)", a.n, a.total, b.n, b.total)
	}
	for i := range a.bins {
		if math.Float64bits(a.bins[i]) != math.Float64bits(b.bins[i]) {
			t.Fatalf("bin %d differs: %v vs %v", i, a.bins[i], b.bins[i])
		}
	}
}

// TestSketchEncodeRoundTrip pins bit-exact decode(encode(s)) == s,
// exact byte consumption, and an encoding EncodedLen bytes long.
func TestSketchEncodeRoundTrip(t *testing.T) {
	rs := xrand.New(404)
	for _, n := range []int{0, 1, 5000} {
		s := randSketch(t, rs, n)
		enc := s.Encode(nil)
		if len(enc) != s.EncodedLen() {
			t.Fatalf("n=%d: encoded %d bytes, EncodedLen %d", n, len(enc), s.EncodedLen())
		}
		got, err := NewLogQuantileSketch[float64](0.5, 4096, 64)
		if err != nil {
			t.Fatal(err)
		}
		rest, err := got.Decode(enc)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if len(rest) != 0 {
			t.Fatalf("n=%d: %d bytes left over", n, len(rest))
		}
		sketchesEqual(t, s, got)
	}
}

// TestSketchMergeCommutativeAssociative: unweighted sketches carry
// integer-valued bins, so the encoded merge must be exactly commutative
// AND associative — any fold order over the same partials yields
// bit-identical bins. This is what lets the coordinator fold per-day
// sketch deltas without caring which worker's frame it read first.
func TestSketchMergeCommutativeAssociative(t *testing.T) {
	rs := xrand.New(505)
	mk := func(n int) *QuantileSketch[float64] {
		s, err := NewLogQuantileSketch[float64](0.5, 4096, 64)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			s.Add(math.Exp(12 * (rs.Float64() - 0.4))) // weight 1: integer bins
		}
		return s
	}
	parts := []*QuantileSketch[float64]{mk(100), mk(1), mk(777), mk(0), mk(42)}
	fold := func(order []int) *QuantileSketch[float64] {
		out, _ := NewLogQuantileSketch[float64](0.5, 4096, 64)
		for _, i := range order {
			if _, err := out.MergeEncoded(parts[i].Encode(nil)); err != nil {
				t.Fatal(err)
			}
		}
		return out
	}
	ref := fold([]int{0, 1, 2, 3, 4})
	for trial := 0; trial < 10; trial++ {
		order := []int{0, 1, 2, 3, 4}
		for i := len(order) - 1; i > 0; i-- { // xrand-seeded shuffle
			j := rs.Intn(i + 1)
			order[i], order[j] = order[j], order[i]
		}
		sketchesEqual(t, ref, fold(order))
	}
	// Associativity with pre-merged groups: (0+1) + (2+3+4).
	g1, _ := NewLogQuantileSketch[float64](0.5, 4096, 64)
	g1.MergeEncoded(parts[0].Encode(nil))
	g1.MergeEncoded(parts[1].Encode(nil))
	g2, _ := NewLogQuantileSketch[float64](0.5, 4096, 64)
	g2.MergeEncoded(parts[2].Encode(nil))
	g2.MergeEncoded(parts[3].Encode(nil))
	g2.MergeEncoded(parts[4].Encode(nil))
	grouped, _ := NewLogQuantileSketch[float64](0.5, 4096, 64)
	grouped.MergeEncoded(g1.Encode(nil))
	grouped.MergeEncoded(g2.Encode(nil))
	sketchesEqual(t, ref, grouped)
}

// TestSketchEncodedLayoutMismatch covers the mismatched-bin error paths:
// different bin count, different range, linear-vs-log — for Decode,
// MergeEncoded, and the in-process Merge they mirror.
func TestSketchEncodedLayoutMismatch(t *testing.T) {
	base, _ := NewLogQuantileSketch[float64](0.5, 4096, 64)
	base.Add(3)
	others := []*QuantileSketch[float64]{}
	if s, err := NewLogQuantileSketch[float64](0.5, 4096, 32); err == nil {
		others = append(others, s) // different bin count
	}
	if s, err := NewLogQuantileSketch[float64](1, 4096, 64); err == nil {
		others = append(others, s) // different lo
	}
	if s, err := NewLinearQuantileSketch[float64](0.5, 4096, 64); err == nil {
		others = append(others, s) // linear vs log
	}
	if len(others) != 3 {
		t.Fatal("failed to build mismatched sketches")
	}
	enc := base.Encode(nil)
	for i, o := range others {
		if _, err := o.Decode(enc); err == nil {
			t.Errorf("case %d: Decode accepted a mismatched layout", i)
		}
		if _, err := o.MergeEncoded(enc); err == nil {
			t.Errorf("case %d: MergeEncoded accepted a mismatched layout", i)
		}
		if err := o.Merge(base); err == nil {
			t.Errorf("case %d: Merge accepted a mismatched layout", i)
		}
	}
	// Truncation and magic errors.
	if _, err := base.Decode(enc[:10]); err == nil {
		t.Error("Decode accepted a truncated sketch")
	}
	bad := append([]byte{}, enc...)
	bad[0] = 0x00
	if _, err := base.Decode(bad); err == nil {
		t.Error("Decode accepted a bad magic byte")
	}
}

// TestSketchMergeEncodedSteadyStateAllocs pins the coordinator merge-loop
// contract: folding an encoded sketch into an existing one allocates
// nothing.
func TestSketchMergeEncodedSteadyStateAllocs(t *testing.T) {
	rs := xrand.New(606)
	part := randSketch(t, rs, 500)
	enc := part.Encode(nil)
	acc, _ := NewLogQuantileSketch[float64](0.5, 4096, 64)
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := acc.MergeEncoded(enc); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("MergeEncoded allocates %v per op, want 0", allocs)
	}
}
