#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload batch-paper --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Everything the build writes (binary and
# Go build cache) stays under .bench_build in the current directory.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath" \
    GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off CGO_ENABLED=0
(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" --workdir "$build/perfbench-work" "$@"
