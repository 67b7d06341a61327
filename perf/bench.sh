#!/bin/sh
# Builds the benchmark and the hca CLI it drives from source, then runs
# one workload.  Run from the repository root:
#   bash perf/bench.sh --workload compile_suite --seed 0 --seconds 20 --trace 0
# Build output goes to stderr; stdout carries only the benchmark's lines.
# The dune cache is off so that nothing is written outside the tree.
set -eu
DUNE_CACHE=disabled dune build --root . --display quiet perf/hcabench.exe bin/hca_cli.exe >&2
exec ./_build/default/perf/hcabench.exe "$@"
