#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh -workload paper-tables -seed 1 -seconds 20 -trace 0
#
# Everything the build writes (Go build cache, temporary files, the
# binary) stays under .bench_build/ in the checkout.
set -euo pipefail

build="$(pwd)/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off
# The benchmark records the commit itself, so a checkout without git
# metadata (or inside another repository) still builds.
export GOFLAGS="-mod=readonly -buildvcs=false"
PERFBENCH_COMMIT="$(git describe --always --dirty --abbrev=40 2>/dev/null || echo unknown)"
export PERFBENCH_COMMIT

(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
