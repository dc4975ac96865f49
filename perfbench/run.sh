#!/usr/bin/env bash
# Builds the benchmark and the shaped daemon from this checkout's sources,
# then runs the benchmark with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload table1 --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh --steady 10 --seconds 20      # steadiness mode
#
# Run it from the checkout root (the benchmark reads the corpus and
# BENCHMARK.json from there). Build cache, binaries, traces and store
# files all stay under .bench_build/perfbench/ in the checkout.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build/perfbench"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
# The go command's own config and telemetry live under XDG_CONFIG_HOME.
export XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache" GOENV=off
export GOFLAGS="-mod=mod -buildvcs=false" GOPROXY=off GOTOOLCHAIN=local GOWORK=off

(cd perfbench && go build -o "$build/perfbench" .) >&2
go build -o "$build/shaped" ./cmd/shaped >&2

exec "$build/perfbench" "$@"
