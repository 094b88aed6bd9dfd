#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ and runs it with the
# given arguments. Run from the repository root:
#
#   bash bench/run.sh --workload zeus-pfcompr --seed 1 --seconds 15 --trace 0
#
# The Go build cache and every other file the toolchain writes stay under
# .bench_build/, so a run reads and writes only inside the checkout.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS=-mod=readonly
go build -C bench -o "$out/cmpbench" .
exec "$out/cmpbench" "$@"
