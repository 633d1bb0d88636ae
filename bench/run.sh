#!/usr/bin/env bash
# The benchmark contract's command: build the harness from source into
# .bench_build/ (Go's caches too, so nothing is written outside the
# checkout) and run one workload. Arguments are passed through:
#   --workload NAME --seed N --seconds N --trace 0|1
set -euo pipefail

if [ ! -f go.mod ] || [ ! -f BENCHMARK.json ]; then
  echo "bench/run.sh: run from the root of a d2 checkout (go.mod and BENCHMARK.json not found)" >&2
  exit 2
fi

root=$PWD
mkdir -p "$root/.bench_build/tmp"
export GOCACHE="$root/.bench_build/gocache"
export GOTMPDIR="$root/.bench_build/tmp"
export TMPDIR="$root/.bench_build/tmp"
export GOTOOLCHAIN=local

go build -o "$root/.bench_build/bench" ./bench
exec "$root/.bench_build/bench" run -data "$root/.bench_build/data" "$@"
