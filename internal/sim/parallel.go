package sim

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// parallelFor runs fn(worker, i) for i in [0, n), where worker in [0,
// poolSize(n, workers)) names the goroutine running the call, so a phase
// can keep one partial result per worker without locking. It is the
// single worker-pool helper of the simulation core — the world build and
// the day loop dispatch every parallel phase through it — so there is
// exactly one clamping rule for Config.Workers (poolSize). A single
// worker runs inline: no goroutines, no scheduling allocations — the
// serial path replay tests compare against parallel runs byte for byte.
//
// Work is claimed from a shared atomic counter in blocks of claimBlock
// consecutive indices, not handed out in one contiguous chunk per worker:
// per-index work is wildly skewed under surge scenarios (a flash-crowd
// client-day runs orders of magnitude more beacon executions than a quiet
// one), and chunked assignment strands that skew on one worker while the
// rest idle at the barrier. Blocks still spread it — 200k clients make
// ~3k blocks per phase. The claim is contended (every worker adds to the
// one counter), so claiming a block per add rather than an index cuts the
// traffic on it by the block size, and neighbouring workers stop writing
// adjacent per-client output slots that share cache lines. The schedule
// has no effect on results: every output index is written by whichever
// worker claims it, and all randomness is per-entity substreams.
func parallelFor(n, workers int, fn func(worker, i int)) {
	workers = poolSize(n, workers)
	if workers == 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				hi := int(next.Add(claimBlock))
				lo := hi - claimBlock
				if lo >= n {
					return
				}
				hi = min(hi, n)
				for i := lo; i < hi; i++ {
					fn(w, i)
				}
			}
		}()
	}
	wg.Wait()
}

// poolSize is how many workers parallelFor runs n indices on: workers <=
// 0 means GOMAXPROCS (Validate rejects negative counts at the config
// boundary; a negative value reaching this level through a direct
// RunWorld/StreamWorld call behaves like the zero value rather than
// silently serializing), clamped to [1, n].
func poolSize(n, workers int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return max(1, min(workers, n))
}

// claimBlock is how many consecutive indices one parallelFor claim takes.
// BenchmarkStreamDay times 16, 64 and 256 within noise of one another.
const claimBlock = 64
