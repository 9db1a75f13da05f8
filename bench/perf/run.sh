#!/usr/bin/env bash
# Builds racedet and the benchmark from source, then runs the benchmark
# from the repository root:
#
#   bash bench/perf/run.sh --workload hotpath --seed 1 --seconds 25 --trace 0
#
# Build output goes to stderr; the last line of stdout is the result.
set -euo pipefail
dune build --root . -j 2 ./bin/racedet.exe ./bench/perf/perf.exe >&2
exec ./_build/default/bench/perf/perf.exe "$@"
