#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in, then runs it:
#
#   bash perfbench/run.sh --workload passive-stream --seed 1 --seconds 30 --trace 0
#
# Run it from the root of the checkout. Every build product (binary, Go
# build cache, temporary files) goes under .bench_build/ there.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal/sim" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the root of an anycastcdn checkout (no simulator sources here)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/config" "$out/tmp"
# The go command keeps its caches, module downloads, settings and telemetry
# under these; the module needs nothing from the network.
(
	export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" GOTMPDIR="$out/tmp"
	export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
	cd "$root/perfbench" && go build -o "$out/perfbench" .
)
exec "$out/perfbench" "$@"
