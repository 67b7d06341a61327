#!/usr/bin/env bash
# Timing gate: alternating hcabench pairs of a base commit and this
# checkout.
#
#   scripts/perf_pair.sh <base-ref>
#
# Builds <base-ref> in a temporary git worktree and the working tree in
# place, then runs PAIRS pairs of `hcabench run` on each workload below.
# Both runs of pair i use the same seed, and the side that runs first
# alternates from pair to pair.  `bench_guard --pairs` then fails the
# script when, on any workload, the median over pairs of change/parent
# for an end-to-end metric is worse than that metric's bound in
# BENCHMARK.json, or when the change fails a larger share of its ops.
# It prints both sides' medians, the median ratio and the bound for
# every workload and metric.
#
# Each workload stands in for a single-sample gate it replaced:
#   compile_suite  hca run over 20 kernels    (table1 h264deblocking runtime budget)
#   dse_sweep      the Domain_pool workload   (hca dse sweep runtime budget)
#   serve_cold     hca serve arms the flight  (flight-ring overhead budget)
#                  ring by default
#
# One pair of the three workloads takes about a minute on a 2-vCPU
# machine.  The worktree lives under $TMPDIR and is removed at exit;
# the dune cache is off so the builds write nothing outside the trees.
set -euo pipefail

PAIRS=5
SECONDS_PER_RUN=5
FIRST_SEED=1
WORKLOADS="compile_suite dse_sweep serve_cold"

if [ $# -ne 1 ]; then
  echo "usage: $0 <base-ref>" >&2
  exit 2
fi
cd "$(git rev-parse --show-toplevel)"
base=$(git rev-parse --verify "$1^{commit}")

work=$(mktemp -d)
cleanup() {
  git worktree remove --force "$work/base" 2>/dev/null || true
  rm -rf "$work"
}
trap cleanup EXIT
git worktree add --quiet --detach "$work/base" "$base"

build() {
  (cd "$1" && DUNE_CACHE=disabled dune build --root . --display quiet "${@:2}")
}
build "$work/base" perf/hcabench.exe bin/hca_cli.exe
build . perf/hcabench.exe bin/hca_cli.exe bin/bench_guard.exe

# run SIDE DIR WORKLOAD PAIR SEED: one hcabench run from DIR, whose last
# line (the result object) is appended to $work/SIDE.ndjson.
run() {
  local result
  result=$(cd "$2" && ./_build/default/perf/hcabench.exe run "$3" \
    --seed "$5" --seconds "$SECONDS_PER_RUN" | tail -n 1)
  printf '{"workload":"%s","pair":%d,"result":%s}\n' "$3" "$4" "$result" \
    >> "$work/$1.ndjson"
}

for i in $(seq 1 "$PAIRS"); do
  seed=$((FIRST_SEED + i - 1))
  for w in $WORKLOADS; do
    if [ $((i % 2)) -eq 1 ]; then
      run parent "$work/base" "$w" "$i" "$seed"
      run change . "$w" "$i" "$seed"
    else
      run change . "$w" "$i" "$seed"
      run parent "$work/base" "$w" "$i" "$seed"
    fi
  done
  echo "perf_pair: pair $i of $PAIRS done" >&2
done

echo "perf_pair: $(git rev-parse --short "$base") (parent) vs the working tree (change)"
./_build/default/bin/bench_guard.exe --pairs BENCHMARK.json \
  "$work/parent.ndjson" "$work/change.ndjson"
