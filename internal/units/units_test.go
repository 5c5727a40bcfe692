package units

import (
	"fmt"
	"math"
	"testing"
)

func TestFloatRoundTrip(t *testing.T) {
	for _, v := range []float64{0, 1, 25, 483.5, -37.25, math.Inf(1)} {
		if got := Millis(v).Float(); got != v {
			t.Errorf("Millis(%v).Float() = %v", v, got)
		}
		if got := Kilometers(v).Float(); got != v {
			t.Errorf("Kilometers(%v).Float() = %v", v, got)
		}
	}
}

// TestFormattingMatchesFloat64 pins the replay-identity contract: a
// unit-typed value must render byte-identically to the float64 it wraps
// under every verb the repo's render paths use. This fails if anyone
// adds a String() method to Millis or Kilometers.
func TestFormattingMatchesFloat64(t *testing.T) {
	verbs := []string{"%.0f", "%.1f", "%.4f", "%g", "%14.4g", "%v", "%8.0f"}
	values := []float64{0, 25, 483.25, 1e18, -0.5, math.Inf(1)}
	for _, verb := range verbs {
		for _, v := range values {
			want := fmt.Sprintf(verb, v)
			if got := fmt.Sprintf(verb, Millis(v)); got != want {
				t.Errorf("Sprintf(%q, Millis(%v)) = %q, want %q", verb, v, got, want)
			}
			if got := fmt.Sprintf(verb, Kilometers(v)); got != want {
				t.Errorf("Sprintf(%q, Kilometers(%v)) = %q, want %q", verb, v, got, want)
			}
		}
	}
}
