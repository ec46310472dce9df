#!/usr/bin/env bash
# Run every paper-figure bench and collect the machine-readable results.
#
# Usage: scripts/run_benches.sh [build_dir] [out_dir]
#
#   build_dir  CMake build tree (default: build). Configured + built if the
#              bench binaries are missing.
#   out_dir    Where BENCH_<name>.json files land (default: bench_results).
#
# Stdout tables from each bench go to <out_dir>/<bench>.log; the JSON
# sidecars are what the perf-trajectory tooling consumes.
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-$repo_root/build}"
out_dir="${2:-$repo_root/bench_results}"

if [ ! -x "$build_dir/bench_fig01_task_durations" ]; then
  echo "== configuring + building benches in $build_dir"
  cmake -B "$build_dir" -S "$repo_root"
  cmake --build "$build_dir" -j "$(nproc)"
fi

mkdir -p "$out_dir"
export BENCH_OUT_DIR="$out_dir"

status=0
for bench in "$build_dir"/bench_*; do
  [ -x "$bench" ] || continue
  name="$(basename "$bench")"
  echo "== $name"
  case "$name" in
    bench_overheads)
      # google-benchmark binary: use its native JSON reporter, under a
      # name of its own (the sweeps after the suite write
      # BENCH_overheads.json and BENCH_parallel_rounds.json).
      if ! "$bench" --benchmark_out="$out_dir/BENCH_overheads_suite.json" \
                    --benchmark_out_format=json \
                    >"$out_dir/$name.log" 2>&1; then
        echo "   FAILED (see $out_dir/$name.log)"
        status=1
      fi
      ;;
    *)
      if ! "$bench" >"$out_dir/$name.log" 2>&1; then
        echo "   FAILED (see $out_dir/$name.log)"
        status=1
      fi
      ;;
  esac
done

echo
echo "== results in $out_dir:"
ls -1 "$out_dir"/BENCH_*.json 2>/dev/null || echo "   (no JSON emitted)"
exit "$status"
