#!/usr/bin/env bash
# Builds fgcs_bench from the surrounding source tree and runs it.
#
#   benchmark/run.sh [--seed S] [--seconds T] [--repeat N]
#       Runs every workload in its own process, each followed by its traced
#       rerun; prints every metric by name with its unit, writes
#       .bench_build/results/<workload>.json and <workload>.spans.jsonl, and
#       exits nonzero when an output check fails.
#
#   benchmark/run.sh --workload W --seed S --seconds T --trace 0|1
#       One run of one workload. The last line of standard output is its
#       JSON result: the end-to-end metrics, or with --trace 1 the
#       per-layer metrics of the traced rerun.
#
# Build output goes to standard error, so the result stays the last line.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"

workload=""
seed=1
seconds=15
trace=0
repeat=1
while [[ $# -gt 0 ]]; do
  if [[ $# -lt 2 ]]; then
    echo "run.sh: $1 needs a value" >&2
    exit 2
  fi
  case "$1" in
    --workload) workload="$2" ;;
    --seed) seed="$2" ;;
    --seconds) seconds="$2" ;;
    --trace) trace="$2" ;;
    --repeat) repeat="$2" ;;
    *)
      echo "run.sh: unknown argument $1" >&2
      exit 2
      ;;
  esac
  shift 2
done

cmake -S "$root/benchmark" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
cmake --build "$build" -j "$(nproc)" --target fgcs_bench fgcs_bench_stats_test >&2
"$build/fgcs_bench_stats_test" --gtest_brief=1 >&2

if [[ -n "$workload" ]]; then
  args=(--workload "$workload" --seed "$seed" --seconds "$seconds"
        --repeat "$repeat")
  if [[ "$trace" == 1 ]]; then
    args+=(--trace "$build/trace-$workload-$seed.jsonl")
  fi
  exec "$build/fgcs_bench" "${args[@]}"
fi

mkdir -p "$build/results"
status=0
for w in warm_read cold_probe ingest_mixed sharded_plan; do
  "$build/fgcs_bench" --workload "$w" --seed "$seed" --seconds "$seconds" \
    --repeat "$repeat" --trace "$build/results/$w.spans.jsonl" \
    --json "$build/results/$w.json" || status=1
done
exit "$status"
