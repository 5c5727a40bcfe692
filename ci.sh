#!/usr/bin/env sh
# ci.sh — the full local gate, in the order failures are cheapest:
#
#   1. build everything
#   2. go vet (stdlib checks, copylocks among them), then a gofmt gate:
#      `gofmt -l .` must print nothing
#   3. anycastvet (this repo's invariant suite: unchecked errors,
#      lock/unlock pairing, no panics in library code, goroutine
#      join/cancel paths, ctx propagation in distsim, dimensional safety
#      for ms/km quantities, documented locking contracts, replay safety
#      — order-dependent map iteration, wall clocks and global math/rand
#      in replay-critical code — and allocation-free hot paths), run
#      once: the JSON run leaves anycastvet.json in the CI log as a
#      machine-readable artifact that names the check behind every
#      finding, prints per-analyzer timings (artifact: vet_timings.txt),
#      and fails if the whole pass exceeds 60 seconds or any single
#      analyzer exceeds 20 seconds (the suite runs in well under a
#      second once the module is loaded; an order-of-magnitude
#      regression means an analyzer went quadratic)
#   4. unit tests in -short mode (which re-run anycastvet over the tree
#      via internal/analysis/self_test.go), then the three programs under
#      examples/, each of which must exit 0, then the long-running targets
#      as named steps so a failure is attributable in the CI log: the full
#      experiment suites, the 1M-prefix x 30-day streaming smoke that
#      proves paper-scale runs stay inside their wall-clock and 2 GiB
#      memory budgets, the reference-run smoke that streams the
#      EXPERIMENTS.md run (8k prefixes x 30 days) through a StreamSuite,
#      renders every paper report and both §6 extensions, and holds the
#      heap to 512 MiB, the distributed-vs-single byte-identity gate (the
#      sharded worker fleet must merge to the exact reports — and, with a
#      load policy, the exact utilization table — the single process
#      writes), and the 4M-prefix x 30-day x 4-worker distributed smoke
#      with its 2 GiB per-worker peak-RSS budget, then the benchmark
#      module's own tests (perfbench is a nested module, so go test ./...
#      skips it; they pin the three workloads' golden report digests),
#      then, on amd64 only, the FMA-off golden gate: the experiments and
#      distsim goldens and the perfbench digests again under
#      GODEBUG=cpu.fma=off. math.Exp picks an FMA or a non-FMA path at
#      run time there, and the two can differ in the last bit, so the
#      outputs are byte-identical across machines only while rounding
#      absorbs that difference; this step checks that it does
#   5. fuzz smoke: 5 seconds each on the fault-scenario parser, the
#      three readers of bytes that cross the
#      worker/coordinator process boundary (the distsim frame reader
#      with its matrix decoder, quantile sketches, and shard-day frames,
#      whose last day carries each shard's analysis state), the
#      gob-encoded Config and Done payloads, the dot-product site
#      search against its brute-force DistanceKm oracle, the count
#      draw's table kernels (xrand.Polar.Count) against the exact
#      expression they stand in for, and the Grouper's memo and radix
#      sort against the append-and-sort grouping over raw RTT bits,
#      enough to replay the corpus and shake out shallow panics and
#      inexact answers
#   6. race detector over the concurrent packages: the parallel
#      simulation core (whose world build draws and keys each block of
#      clients on the worker pool), the fault-injection layer, the client
#      population generator, the LDNS mapper, the load manager, the
#      stats kernels, the prediction core, and the
#      distributed coordinator/worker layer,
#      then the experiments package's concurrent tests: the beacon fold,
#      which splits every day into two halves on two goroutines;
#      Figure 1, which measures its clients in contiguous ranges, one
#      goroutine each; and Resilience, whose faulted run streams on a
#      goroutine of its own in lockstep with the baseline (the whole
#      package under -race is too slow for this gate)
#   7. coverage floor: the scenario engine, the simulation core, the
#      analysis engine, and the load-management layer together must keep
#      >= 80% statement coverage (artifact: cover_repro.out)
#   8. benchmarks at -benchtime=1x, five samples each (-count 5) and one
#      package at a time (-p 1, so no gated timing shares the CPUs with
#      another package's benchmarks); cmd/benchjson reduces the samples
#      to their medians in the machine-readable artifact BENCH_repro.json
#      and gates them against the checked-in BENCH_baseline.json (itself
#      medians): the baseline's benchmarks may not regress past 15%
#      (among them BenchmarkStreamDay, the passive day pass, and
#      BenchmarkStreamManaged, one surge-fleet worker's FastRoute-managed
#      stream of 50k prefixes x 30 days),
#      BenchmarkAblationFloor50 must stay >= 3x faster than its
#      pre-optimization baseline, the xrand substream, latency sampling,
#      peering-ranking, per-client schedule, nearest-site, client-day
#      beacon batch, warmed-Grouper regrouping (of a random-order day and
#      of a day in the fold's client order) and a client's month of
#      query counts benchmarks must report 0 allocs/op, the world builds — BenchmarkBuildWorld, a 50k-prefix
#      population on every core, and BenchmarkBuildShardWorld, one
#      distributed worker's [100k, 200k) of a 400k-prefix population on
#      one core — must each stay under 10,000 allocs/op (the block walk
#      allocates nothing per client; what is left scales with resolvers
#      and blocks), and the simulation
#      cores must stay at least 3x below their B/op before the
#      streaming rewrite
#      (RunWorld/StreamWorld baseline was ~223 MB/op; the ceiling is
#      74 MB/op), and the whole-fleet
#      distributed run must stay under 55 MB/op (frame buffers are
#      reused, so the bill is dominated by the two worker world builds);
#      a failure names the benchmark and both the baseline and current
#      values
#
# Usage: ./ci.sh
set -eu

echo '== go build ./...'
go build ./...

echo '== go vet ./...'
go vet ./...

echo '== gofmt -l . (must list nothing)'
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo 'ci.sh: gofmt would reformat these files:' >&2
	echo "$unformatted" >&2
	exit 1
fi

echo '== anycastvet -json -timings ./... (artifacts: anycastvet.json, vet_timings.txt)'
vet_start=$(date +%s)
if ! go run ./cmd/anycastvet -json -timings ./... > anycastvet.json 2> vet_timings.txt; then
	cat vet_timings.txt >&2
	echo 'ci.sh: anycastvet reported violations; offending check(s):' >&2
	grep -o '"check": *"[a-z0-9]*"' anycastvet.json | sort -u >&2
	exit 1
fi
cat vet_timings.txt
vet_elapsed=$(( $(date +%s) - vet_start ))
echo "anycastvet pass took ${vet_elapsed}s (budget 60s, 20s per analyzer)"
if [ "$vet_elapsed" -gt 60 ]; then
	echo "ci.sh: anycastvet took ${vet_elapsed}s, over the 60s budget; an analyzer has gone quadratic" >&2
	exit 1
fi
awk '/^anycastvet:/ {
	ms = $3; sub(/ms$/, "", ms)
	if (ms + 0 > 20000) { printf "ci.sh: analyzer %s took %sms, over the 20s per-analyzer budget\n", $2, ms; bad = 1 }
} END { exit bad }' vet_timings.txt

echo '== go test ./... (short mode; the long-running targets get named steps below)'
go test -short ./...

echo '== examples (quickstart, prediction, pathology; each must exit 0)'
for ex in quickstart prediction pathology; do
	go run "./examples/$ex" > /dev/null || {
		echo "ci.sh: example $ex failed" >&2; exit 1; }
done

echo '== long-running experiment suites (skipped above by -short)'
go test -run 'TestAllRuns|TestDeploymentDensity' ./internal/experiments/

echo '== 1M-prefix x 30-day streaming smoke (bounded memory + wall clock)'
go test -run TestStreamWorldMillionPrefixSmoke -v ./internal/sim/

echo '== reference-run (8k-prefix x 30-day) StreamSuite smoke (every report, heap <= 512 MiB)'
go test -run TestReferenceRunMemorySmoke -v ./internal/experiments/

echo '== distributed-vs-single byte-identity (reports must match exactly, with and without a load policy)'
go build -o anycastsim.ci ./cmd/anycastsim
rm -rf ci_dist_out
mkdir -p ci_dist_out/single ci_dist_out/dist ci_dist_out/single_lm ci_dist_out/dist_lm
./anycastsim.ci -prefixes 2000 -days 9 -reports -out ci_dist_out/single > /dev/null
./anycastsim.ci -prefixes 2000 -days 9 -distribute 3 -out ci_dist_out/dist > /dev/null
cmp ci_dist_out/single/reports.txt ci_dist_out/dist/reports.txt || {
	echo 'ci.sh: distributed reports differ from single-process' >&2; exit 1; }
./anycastsim.ci -prefixes 2000 -days 9 -reports -loadpolicy fastroute \
	-scenario 'surge south-america day=3 for=3 qps=6' -out ci_dist_out/single_lm > /dev/null
./anycastsim.ci -prefixes 2000 -days 9 -distribute 3 -loadpolicy fastroute \
	-scenario 'surge south-america day=3 for=3 qps=6' -out ci_dist_out/dist_lm > /dev/null
cmp ci_dist_out/single_lm/reports.txt ci_dist_out/dist_lm/reports.txt || {
	echo 'ci.sh: load-managed distributed reports differ from single-process' >&2; exit 1; }
cmp ci_dist_out/single_lm/utilization.csv ci_dist_out/dist_lm/utilization.csv || {
	echo 'ci.sh: load-managed distributed utilization differs from single-process' >&2; exit 1; }
echo 'distributed reports and utilization byte-identical to single-process'

echo '== 4M-prefix x 30-day x 4-worker distributed smoke (per-worker peak RSS <= 2 GiB)'
./anycastsim.ci -prefixes 4000000 -days 30 -beaconrate 0 -distribute 4 \
	-out ci_dist_out/scale | tee ci_dist_out/scale.log
awk '/peak RSS/ {
	n += 1
	rss = $(NF-1)
	if (rss + 0 > 2048) { printf "ci.sh: worker peak RSS %.1f MiB exceeds the 2 GiB budget\n", rss; bad = 1 }
} END {
	if (n != 4) { printf "ci.sh: expected 4 worker RSS reports, saw %d\n", n; exit 1 }
	exit bad
}' ci_dist_out/scale.log
rm -rf ci_dist_out anycastsim.ci

echo '== perfbench module tests (golden report digests of the benchmark workloads)'
(cd perfbench && go test .)

echo '== FMA-off golden gate (amd64 only: goldens and perfbench digests under GODEBUG=cpu.fma=off)'
if [ "$(go env GOARCH)" = amd64 ]; then
	GODEBUG=cpu.fma=off go test -count=1 -run Golden ./internal/experiments/ ./internal/distsim/
	(cd perfbench && GODEBUG=cpu.fma=off go test -count=1 .)
else
	echo "GOARCH $(go env GOARCH) has no run-time FMA switch in math.Exp; skipped"
fi

echo '== fuzz smoke (5s per target)'
go test -run '^$' -fuzz FuzzParseScenario -fuzztime 5s ./internal/faults/
# Frame-reader inputs carry 70-site vectors of ~570 bytes, sketch frames
# run to ~1 KB, shard-day frames to ~2 KB and Grouper days to ~1.3 KB,
# and minimizing one new input at the default -fuzzminimizetime (60s)
# would stall the whole 5s budget: with an empty build cache, a
# FuzzFrameRead run without the flag stopped at 261 execs, and made
# 65,425 with it.
go test -run '^$' -fuzz FuzzFrameRead -fuzztime 5s -fuzzminimizetime 200x ./internal/distsim/
go test -run '^$' -fuzz FuzzQuantileSketchMergeEncoded -fuzztime 5s -fuzzminimizetime 200x ./internal/stats/
go test -run '^$' -fuzz FuzzMergeShardDay -fuzztime 5s -fuzzminimizetime 200x ./internal/experiments/
go test -run '^$' -fuzz FuzzGobFrames -fuzztime 5s -fuzzminimizetime 200x ./internal/distsim/
go test -run '^$' -fuzz FuzzGrouper -fuzztime 5s -fuzzminimizetime 200x ./internal/core/
go test -run '^$' -fuzz FuzzPointSet -fuzztime 5s ./internal/geo/
go test -run '^$' -fuzz FuzzPolarCount -fuzztime 5s ./internal/xrand/

echo '== go test -race (concurrent packages)'
go test -race ./internal/sim/ ./internal/faults/ ./internal/clients/ ./internal/dns/ ./internal/load/ ./internal/stats/ ./internal/core/ ./internal/distsim/
go test -race -short -run 'TestStreamSuiteMatchesSuite|TestFigure9|TestHybridDeployment|TestMetricStability|TestFigure1DiminishingReturns|TestFigure1SameAcrossWorkers|TestResilience|TestPairStreams' ./internal/experiments/

echo '== coverage floor: internal/faults + internal/sim + internal/analysis + internal/load >= 80% (artifact: cover_repro.out)'
go test -coverpkg=anycastcdn/internal/faults,anycastcdn/internal/sim,anycastcdn/internal/analysis,anycastcdn/internal/load \
	-coverprofile=cover_repro.out ./internal/faults/ ./internal/sim/ ./internal/analysis/ ./internal/load/ > /dev/null
total=$(go tool cover -func=cover_repro.out | awk '/^total:/ { gsub("%", "", $3); print $3 }')
awk -v t="$total" 'BEGIN {
	if (t + 0 < 80) { printf "ci.sh: faults+sim+analysis+load coverage %.1f%% is below the 80%% floor\n", t; exit 1 }
	printf "faults+sim+analysis+load coverage: %.1f%% (floor 80%%)\n", t
}'

echo '== benchmarks at -benchtime=1x -count 5 -p 1, medians gated against BENCH_baseline.json (artifact: BENCH_repro.json)'
go test -p 1 -run '^$' -bench . -benchtime 1x -count 5 -json ./... | go run ./cmd/benchjson \
	-o BENCH_repro.json \
	-compare BENCH_baseline.json -tolerance 0.15 \
	-minspeedup BenchmarkAblationFloor50=3 \
	-maxallocs BenchmarkSubstream=0,BenchmarkSampleRTT=0,BenchmarkRankPeeringByAir=0,BenchmarkIngressSchedule=0,BenchmarkPointSetNearest=0,BenchmarkBeaconBatch=0,BenchmarkGrouper=0,BenchmarkGrouperClientOrder=0,BenchmarkQueriesMonth=0,BenchmarkBuildWorld=10000,BenchmarkBuildShardWorld=10000 \
	-maxbytes BenchmarkRunWorld=74000000,BenchmarkStreamWorld=74000000,BenchmarkDistWorld=55000000

echo '== ci.sh: all gates passed'
