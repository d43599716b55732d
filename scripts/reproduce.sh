#!/usr/bin/env bash
# Full reproduction pipeline: build, test, run every table/figure bench.
#
#   scripts/reproduce.sh [build-dir]
#
# Outputs land in test_output.txt and bench_output.txt at the repository
# root, matching the files EXPERIMENTS.md was written from.
set -euo pipefail

BUILD_DIR="${1:-build}"
ROOT="$(cd "$(dirname "$0")/.." && pwd)"
cd "$ROOT"

# No -G: a new directory gets CMake's default generator and an existing one
# keeps its own (the tier-1 `build` directory is configured without Ninja).
cmake -S . -B "$BUILD_DIR"
cmake --build "$BUILD_DIR" --parallel "$(nproc)"

ctest --test-dir "$BUILD_DIR" 2>&1 | tee test_output.txt

# Only the table/figure benches that bench/CMakeLists.txt declares with
# jitgc_bench(<name> [libs...]): a reused build directory may still hold
# binaries of benches that no longer exist, and those must not run or be
# reported.
mapfile -t BENCHES < <(sed -nE 's/^jitgc_bench\(([A-Za-z0-9_]+)( [^)]*)?\)$/\1/p' bench/CMakeLists.txt)
[ "${#BENCHES[@]}" -gt 0 ] || { echo "no jitgc_bench() targets in bench/CMakeLists.txt" >&2; exit 1; }

{
  for name in "${BENCHES[@]}"; do
    echo "===================================================================="
    echo "== $name"
    echo "===================================================================="
    "$BUILD_DIR/bench/$name"
    echo
  done
} 2>&1 | tee bench_output.txt

echo "done: test_output.txt, bench_output.txt"
