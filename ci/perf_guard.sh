#!/usr/bin/env bash
# Value gate. Usage: ci/perf_guard.sh [build-dir]
#
# Runs bench/harness.cpp's curated subset once and compares its
# deterministic simulated values (bandwidths, retry counts, stall
# fractions, solver and fleet counters) against the committed baseline
# (BENCH_numaio.json at the repo root): *_stall_frac values at ±0.02
# absolute, every other value at ±1% relative, and a value missing from
# either file or not finite in either file fails. Nothing here is timed;
# wall time is bench/e2e's job.
#
#   PERF_GUARD_CURRENT use an existing results file instead of running
#                      the harness — how the CTest self-tests prove the
#                      gate fails on a drifted or non-finite value.
#
# Refreshing the baseline after an intentional behavior change:
#   build/bench/bench_harness run --out BENCH_numaio.json
set -euo pipefail

ROOT=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
BUILD_DIR=${1:-"$ROOT/build"}
BASELINE="$ROOT/BENCH_numaio.json"
HARNESS="$BUILD_DIR/bench/bench_harness"
JOBS=$(nproc 2>/dev/null || echo 2)

if [ ! -f "$BASELINE" ]; then
  echo "perf_guard: no baseline at $BASELINE" >&2
  exit 1
fi
if [ ! -x "$HARNESS" ]; then
  cmake --build "$BUILD_DIR" -j "$JOBS" --target bench_harness
fi

CURRENT=${PERF_GUARD_CURRENT:-}
if [ -z "$CURRENT" ]; then
  CURRENT=$(mktemp /tmp/bench_numaio_XXXXXX.json)
  trap 'rm -f "$CURRENT"' EXIT
  "$HARNESS" run --out "$CURRENT"
fi

if ! "$HARNESS" compare "$BASELINE" "$CURRENT"; then
  # compare prints one FAIL line per offending value, including values
  # absent from the baseline (a stale baseline after a harness change).
  # Spell out the remedy either way.
  echo "perf_guard: FAILED against $BASELINE" >&2
  echo "perf_guard: if the change is intentional (new bench, new metric, or" >&2
  echo "perf_guard: an accepted behavior change), refresh the baseline with:" >&2
  echo "perf_guard:   $HARNESS run --out $BASELINE" >&2
  exit 1
fi
