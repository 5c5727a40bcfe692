package xrand

import (
	"math"
	"testing"
)

// linearChoice is WeightedChoice's body with the Float64 draw given as u.
func linearChoice(weights []float64, u float64) int {
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
	target := u * total
	var acc float64
	for i, w := range weights {
		acc += w
		if target < acc {
			return i
		}
	}
	return len(weights) - 1
}

// adversarialWeights hold zero weights where a search for the first sum
// at or above the target, rather than above it, lands on them.
// WeightedChoice accepts any weights that are not negative, NaN and
// infinite ones included.
var adversarialWeights = [][]float64{
	{0, 0, 1, 2},
	{1, 2, 0, 0},
	{1, 0, 0, 2, 0, 3},
	{0, 0, 5, 0},
	{3},
	{0, 1, 1, 0, 1, 1, 0},
	{0.1, 0.2, 0, 0.3, 1e-300, 0, 7},
	// Non-finite sums make every comparison with the target false, so
	// both searches fall through to the last index.
	{1, math.Inf(1), 2},
	{math.NaN(), 1},
}

// TestPickerMatchesLinearChoiceAtEdges compares the picker's index with
// WeightedChoice's scan at every draw that can tell them apart: 0, each
// running sum's share of the total and its neighbours, and the largest
// draws below 1.
func TestPickerMatchesLinearChoiceAtEdges(t *testing.T) {
	top := math.Nextafter(1, 0) // the largest Float64 draw, 1 - 2^-53
	for _, ws := range adversarialWeights {
		p, ok := NewPicker(ws)
		if !ok {
			t.Fatalf("weights %v rejected", ws)
		}
		us := []float64{0, math.SmallestNonzeroFloat64, 0.5, top, math.Nextafter(top, 0), 1 - 0x1p-52}
		total := p.cum[len(p.cum)-1]
		for _, c := range p.cum {
			u := c / total
			us = append(us, u, math.Nextafter(u, 0), math.Nextafter(u, 1))
		}
		for _, u := range us {
			if u < 0 || u >= 1 {
				continue
			}
			if got, want := p.Index(u), linearChoice(ws, u); got != want {
				t.Fatalf("weights %v, draw %v: picker %d, WeightedChoice %d", ws, u, got, want)
			}
		}
	}
}

// TestPickerMatchesWeightedChoice draws from two streams with one seed:
// the picker and WeightedChoice must agree on every index. It also pins
// linearChoice to WeightedChoice, draw by draw.
func TestPickerMatchesWeightedChoice(t *testing.T) {
	for k, ws := range adversarialWeights {
		p, _ := NewPicker(ws)
		a, b, c := New(uint64(k)), New(uint64(k)), New(uint64(k))
		for i := 0; i < 20_000; i++ {
			want := b.WeightedChoice(ws)
			if got := p.Pick(a); got != want {
				t.Fatalf("weights %v draw %d: picker %d, WeightedChoice %d", ws, i, got, want)
			}
			if got := linearChoice(ws, c.Float64()); got != want {
				t.Fatalf("weights %v draw %d: linearChoice %d, WeightedChoice %d", ws, i, got, want)
			}
		}
	}
}

func TestNewPickerRejectsWhatWeightedChoiceRejects(t *testing.T) {
	for _, ws := range [][]float64{nil, {}, {0, 0}, {1, -1}, {-0.5}} {
		if _, ok := NewPicker(ws); ok {
			t.Fatalf("NewPicker(%v) accepted weights WeightedChoice rejects", ws)
		}
		if got := New(1).WeightedChoice(ws); got != -1 {
			t.Fatalf("WeightedChoice(%v) = %d, want -1", ws, got)
		}
	}
}
