#!/usr/bin/env bash
# Builds the end-to-end loopback benchmark from the checkout it sits in and
# runs it with the given arguments. Run it from the repository root:
#
#   bash e2ebench/run.sh --workload durable-tree --seed 1 --seconds 10 --trace 0
#   bash e2ebench/run.sh --workload all --seed 1
#   bash e2ebench/run.sh compare runs/before runs/after
#
# Everything the build and the run leave behind goes under .bench_build/ in
# the current directory: the Go build cache, the binary, and the temporary
# segment and WAL files of each run.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath"

export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOENV=off

(cd "$here" && go build -o "$build/e2ebench" .)
exec "$build/e2ebench" -root "$root" -bench-json "$root/BENCHMARK.json" "$@"
