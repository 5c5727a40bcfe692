package sim

import (
	"sync/atomic"
	"testing"
)

// TestParallelForClaimsEachIndexOnce pins the block-claim loop at its
// edges: for lengths around and across one claim block, and for inline,
// small and oversubscribed pools, every index in [0, n) runs exactly once
// — none skipped in a partial last block, none run twice by workers whose
// claims overshoot n.
func TestParallelForClaimsEachIndexOnce(t *testing.T) {
	const b = claimBlock
	for _, n := range []int{0, 1, b - 1, b, b + 1, 5*b + 3} {
		for _, workers := range []int{1, 2, 3, 16} {
			runs := make([]atomic.Int32, n)
			parallelFor(n, workers, func(i int) { runs[i].Add(1) })
			for i := range runs {
				if got := runs[i].Load(); got != 1 {
					t.Fatalf("n=%d workers=%d: index %d ran %d times, want 1", n, workers, i, got)
				}
			}
		}
	}
}
