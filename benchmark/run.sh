#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments,
# e.g. `bash benchmark/run.sh --workload tower_steady --seed 101 --seconds 15
# --trace 0`. Run it from the root of an ftss checkout; the build stays in
# the checkout (_build) and skips dune's shared cache.
set -euo pipefail

if [[ ! -f dune-project || ! -d lib ]]; then
  echo "benchmark/run.sh: run from the root of an ftss checkout" >&2
  exit 2
fi

export DUNE_CACHE=disabled
dune build --root . --display quiet ./benchmark/main.exe >&2
exec ./_build/default/benchmark/main.exe "$@"
