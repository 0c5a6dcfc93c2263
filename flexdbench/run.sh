#!/usr/bin/env bash
# Builds and runs the flexd benchmark from the repository root:
#
#   bash flexdbench/run.sh --workload steady-churn --seed 1 --seconds 30 --trace 0
#
# The Go build cache, the benchmark binary, the flexd binary and every
# run's data live under .bench_build/ in the repository root, so a run
# reads and writes nothing outside the checkout and needs no network.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
go -C flexdbench build -o "$build/flexdbench" . >&2
exec "$build/flexdbench" "$@"
