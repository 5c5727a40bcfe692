package sim

import (
	"sync/atomic"
	"testing"
)

// TestParallelForClaimsEachIndexOnce pins the block-claim loop at its
// edges: for lengths around and across one claim block, and for inline,
// small and oversubscribed pools, every index in [0, n) runs exactly once
// — none skipped in a partial last block, none run twice by workers whose
// claims overshoot n — each on a worker slot inside the pool poolSize
// sizes that no other goroutine holds at the same time.
func TestParallelForClaimsEachIndexOnce(t *testing.T) {
	const b = claimBlock
	for _, n := range []int{0, 1, b - 1, b, b + 1, 5*b + 3} {
		for _, workers := range []int{1, 2, 3, 16} {
			runs := make([]atomic.Int32, n)
			pool := poolSize(n, workers)
			busy := make([]atomic.Int32, pool)
			parallelFor(n, workers, func(w, i int) {
				if w < 0 || w >= pool {
					t.Errorf("n=%d workers=%d: index %d ran on worker %d outside [0, %d)", n, workers, i, w, pool)
					return
				}
				if busy[w].Add(1) != 1 {
					t.Errorf("n=%d workers=%d: worker slot %d ran two indices at once", n, workers, w)
				}
				runs[i].Add(1)
				busy[w].Add(-1)
			})
			for i := range runs {
				if got := runs[i].Load(); got != 1 {
					t.Fatalf("n=%d workers=%d: index %d ran %d times, want 1", n, workers, i, got)
				}
			}
		}
	}
}
