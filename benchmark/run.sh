#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ of the checkout and runs
# it with the given arguments. Everything the build and the run write, the Go
# build cache included, stays inside the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
mkdir -p .bench_build/tmp
export GOCACHE="$root/.bench_build/gocache" GOTMPDIR="$root/.bench_build/tmp" GOTOOLCHAIN=local
go build -C benchmark -o "$root/.bench_build/byzopt-benchmark" .
exec "$root/.bench_build/byzopt-benchmark" "$@"
