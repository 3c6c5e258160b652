#!/bin/sh
# Builds the benchmark from source, then runs it with the given arguments.
# Run from the repository root:
#   sh perfbench/run.sh --workload portfolio --seed 1 --seconds 40 --trace 0
set -e
export DUNE_CACHE=disabled
dune build --root . --display quiet ./perfbench/bin/main.exe 1>&2
exec ./_build/default/perfbench/bin/main.exe "$@"
