#!/usr/bin/env bash
# Driver entry point named by BENCHMARK.json. It builds the benchmark from
# source into .bench_build/ at the root of the checkout — the compiler's cache
# and temporary files go there too, so nothing is written outside the
# checkout — and runs it with the driver's arguments. People can skip it:
# `cd benchmark && go run .` does the same with the usual Go caches.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/cache" "$build/tmp" "$build/gopath"
export GOCACHE="$build/cache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" GOTOOLCHAIN=local
go build -C "$root/benchmark" -o "$build/condor-benchmark" .
exec "$build/condor-benchmark" "$@"
