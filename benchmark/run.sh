#!/usr/bin/env bash
# Entry point the benchmark driver calls (see BENCHMARK.json):
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# It builds ./benchmark from source into .bench_build/ at the root of the
# checkout and runs it. Go's build and module caches are pointed inside
# .bench_build/ too, so a run reads and writes nothing outside the
# checkout; the first build in a fresh checkout therefore compiles the
# standard library as well. `go run ./benchmark ...` takes the same
# arguments and is the shorter way in when that does not matter.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOTOOLCHAIN=local
go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
