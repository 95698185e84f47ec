#!/usr/bin/env bash
# Build the benchmark from source in this checkout, then run it:
#
#   bash benchmark/run.sh --workload trickle --seed 1 --seconds 20 --trace 0
#
# Build output goes to stderr, so the last line on stdout is the result.
set -euo pipefail
cd "$(dirname "$0")/.."
export DUNE_CACHE=disabled
dune build --root . --display quiet ./benchmark/main.exe 1>&2
exec ./_build/default/benchmark/main.exe "$@"
