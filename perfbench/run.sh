#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build and runs it with the
# given arguments, from the root of a checkout of the repository:
#
#   bash perfbench/run.sh --workload benign-mix --seed 1 --seconds 20 --trace 0
#
# The Go build cache and the binary stay inside the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTOOLCHAIN=local GOPROXY=off
go -C perfbench build -o "$out/bin/perfbench" .
exec "$out/bin/perfbench" "$@"
