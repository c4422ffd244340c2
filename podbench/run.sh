#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository root:
#
#   bash podbench/run.sh --workload live-writes --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run leave behind (Go build cache, binary,
# scratch inputs, traces) stays under .bench_build/ in the working directory.
set -euo pipefail

root="$(pwd)"
bench="$root/podbench"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/gotmp"
export GOPATH="$out/gopath"
export GOFLAGS="-buildvcs=false"
export GOTOOLCHAIN=local
export GOENV=off
export GOPROXY=off
export GOWORK=off

(cd "$bench" && go build -o "$out/podbench" .) >&2
exec "$out/podbench" "$@"
