//go:build race

package sim_test

// raceEnabled reports whether the race detector is instrumenting this
// build. The million-prefix smoke skips under race: its wall-clock
// budget assumes uninstrumented code, and race instrumentation slows the
// day loop several-fold. The streaming path's race coverage comes from
// the smaller tests that stream on a multi-worker pool and do run
// race-enabled: TestWorkersRuleUnifiedAcrossPaths, TestParallelMatchesSerial,
// TestStreamShardConcatenationMatchesStreamWorld,
// TestManagedWorkersInvariance and TestStreamErrorJoinsWorkers, with
// TestParallelForClaimsEachIndexOnce on the pool itself.
const raceEnabled = true
