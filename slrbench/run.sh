#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it with the
# given arguments. Run from the repository root:
#
#   bash slrbench/run.sh --workload paper-grid --seed 1 --seconds 20 --trace 0
#
# Everything the Go toolchain writes (build cache, temporary files, the
# binary) goes under .bench_build/ in the checkout.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/home" "$out/tmp"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home" XDG_CACHE_HOME="$out/home"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOFLAGS=-mod=vendor GOTOOLCHAIN=local GOTELEMETRY=off

go build -o "$out/slrbench" ./slrbench
exec "$out/slrbench" "$@"
