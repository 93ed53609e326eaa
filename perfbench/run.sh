#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ under the current
# directory (the repository root) and runs it with the given flags, e.g.
#
#   bash perfbench/run.sh --workload fleet-mix --seed 1 --seconds 10 --trace 0
#
# Every file the Go toolchain writes (build cache, temporary files,
# telemetry) stays under .bench_build/.
set -euo pipefail

build="$(pwd)/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOMODCACHE="$build/gomodcache" GOTOOLCHAIN=local GOPROXY=off

# Build under a private name and rename into place, so concurrent runs
# never execute a half-written binary.
(cd perfbench && go build -o "$build/perfbench.$$" .)
mv -f "$build/perfbench.$$" "$build/perfbench"
exec "$build/perfbench" "$@"
