package beacon

import (
	"anycastcdn/internal/bgp"
	"anycastcdn/internal/clients"
	"anycastcdn/internal/xrand"
)

// CandidatesAfterAnycast is how Figure 1 measured a query's candidates
// before the batch form: a fresh Start, the anycast sample, then every
// candidate's sample from the same stream scratch.
// TestCandidateSamplesMatchFreshBatch pins Batch.CandidateSamples to it.
func CandidatesAfterAnycast(e *Executor, c clients.Client, day int, assign bgp.Assignment, queryID uint64) []TargetSample {
	var b Batch
	b.Start(e, c, day, assign)
	var rs xrand.Stream
	b.sample(&rs, 0, queryID, 0)
	out := make([]TargetSample, len(b.cands))
	for i := range out {
		out[i] = b.sample(&rs, 1+i, queryID, uint64(i+1))
	}
	return out
}
