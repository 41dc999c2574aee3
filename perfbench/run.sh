#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it with
# the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload sim-sweep --seed 1 --seconds 30 --trace 0
#
# Build outputs, the Go build cache and the traced run's spans stay
# under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
