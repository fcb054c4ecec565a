#!/usr/bin/env bash
# Perf-regression gate. Usage: ci/perf_guard.sh [build-dir]
#
# Runs bench/harness.cpp's curated subset and compares the result against
# the committed baseline (BENCH_numaio.json at the repo root) with
# per-metric tolerances. Simulated metrics (bandwidths, retry counts,
# stall fractions) are deterministic and always gated; wall-time gating
# is opt-in because shared CI runners are too noisy for a relative
# threshold:
#
#   PERF_GUARD_FLAGS   compare flags, default "--skip-wall". Set to ""
#                      (or "--wall-tol 0.20") on a quiet dedicated box to
#                      gate wall time too. *_info metrics (host facts,
#                      wall-time ratios such as solver_storm_mt's
#                      partition_speedup_info) are recorded, never gated.
#                      The fleet_scale bench's sched_rps metric is
#                      floor-gated unconditionally (>= 5e5 scheduled
#                      requests/s; the scenario itself clears 1e6, and
#                      the floor leaves headroom for future scenario
#                      tweaks): it is computed from simulated time, so
#                      it cannot regress from runner noise;
#                      "--rps-floor F" tunes the threshold.
#   PERF_GUARD_CURRENT use an existing results file instead of running
#                      the harness — how the CTest self-test proves the
#                      gate fails on an injected slowdown.
#
# Refreshing the baseline after an intentional perf change:
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

# Intentionally unquoted: PERF_GUARD_FLAGS holds zero or more flags.
# shellcheck disable=SC2086
if ! "$HARNESS" compare "$BASELINE" "$CURRENT" ${PERF_GUARD_FLAGS---skip-wall}; then
  # compare prints one FAIL line per offending bench/metric, including
  # benches or metrics absent from the baseline (a stale baseline after a
  # harness change). Spell out the remedy either way.
  echo "perf_guard: FAILED against $BASELINE" >&2
  echo "perf_guard: if the change is intentional (new bench, new metric, or" >&2
  echo "perf_guard: an accepted perf shift), refresh the baseline with:" >&2
  echo "perf_guard:   $HARNESS run --out $BASELINE" >&2
  exit 1
fi
