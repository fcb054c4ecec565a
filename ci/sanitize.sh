#!/usr/bin/env bash
# ASan+UBSan build and test run. Usage: ci/sanitize.sh [build-dir]
#
# Configures a separate build tree with AddressSanitizer and
# UndefinedBehaviorSanitizer enabled, builds everything and runs the full
# ctest suite with sanitizer errors promoted to hard failures.
set -euo pipefail

ROOT=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
BUILD_DIR=${1:-"$ROOT/build-sanitize"}
SAN_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all -fno-omit-frame-pointer -g"
JOBS=$(nproc 2>/dev/null || echo 2)

cmake -B "$BUILD_DIR" -S "$ROOT" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS="$SAN_FLAGS" \
  -DCMAKE_EXE_LINKER_FLAGS="$SAN_FLAGS"

cmake --build "$BUILD_DIR" -j "$JOBS"

# The solver property suite runs first, on its own: it is the randomized
# stress for the CSR arena / free-list / incidence bookkeeping (including
# bit-identical churn vs the reference solver), exactly the code where an
# out-of-bounds arena index or stale incidence back-pointer would hide.
# The partition suites ride along: component buckets index the same arena.
ASAN_OPTIONS="halt_on_error=1:detect_leaks=1" \
UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
  "$BUILD_DIR/tests/numaio_tests" \
  --gtest_filter='*SolverProperty*:FlowSolverCache.*:FlowSolverFreeList.*:FlowSolverCapacityFactor.*:FlowSolverScratch.*:FlowSolverPartition.*:FlowSolverStatus.*'

# The fleet serving suite also runs standalone: its runtime is the one
# place where event-engine callbacks hold (id, generation) handles across
# host crashes that tear down in-flight state — exactly where a stale
# pointer or double-detach would surface as a use-after-free. The scale
# suite (FleetScale) adds the batched admission path and 2,000-tenant
# storm runs; AlarmEngine covers the completion-alarm heap and its merge
# hook.
ASAN_OPTIONS="halt_on_error=1:detect_leaks=1" \
UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
  "$BUILD_DIR/tests/numaio_tests" \
  --gtest_filter='TokenBucket*:*BoundedQueue*:CircuitBreaker*:AdmissionStatus*:FleetSim*:FleetScale*:*AlarmEngine*:FaultPlanFile*'

# The trace text path runs standalone as well: the JSONL cursor reads
# keys and strings as string_views into the line and the serializers
# render into reused buffers, so an out-of-bounds read in the cursor or a
# render buffer would hide here. Random round trips, mutation fuzz of
# every text parser (fault plans included), number-grammar pins and the
# metrics JSON round trip.
ASAN_OPTIONS="halt_on_error=1:detect_leaks=1" \
UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
  "$BUILD_DIR/tests/numaio_tests" \
  --gtest_filter='*TraceRoundTrip*:*ParserFuzz*:ParseTraceJsonl*:Metrics.*'

# halt_on_error: the first sanitizer report fails the test run instead of
# scrolling past; detect_leaks exercises the Host/Buffer ownership paths.
# The suite includes bench_e2e_smoke, so all four bench/e2e workloads run
# under the sanitizers too, at a tiny size.
ASAN_OPTIONS="halt_on_error=1:detect_leaks=1" \
UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
  ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS"

echo "sanitize: all tests passed under ASan+UBSan"

# ThreadSanitizer pass over the only concurrent code: the live-telemetry
# hub and its HTTP accept thread (obs/serve.h), scraped from test threads
# while fleet storms publish — including an idle client holding a
# connection open. TSan cannot be combined with ASan, so it gets its own
# tree.
TSAN_BUILD_DIR="${BUILD_DIR}-tsan"
TSAN_FLAGS="-fsanitize=thread -fno-omit-frame-pointer -g"

cmake -B "$TSAN_BUILD_DIR" -S "$ROOT" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS="$TSAN_FLAGS" \
  -DCMAKE_EXE_LINKER_FLAGS="$TSAN_FLAGS"

cmake --build "$TSAN_BUILD_DIR" -j "$JOBS" --target numaio_tests

TSAN_OPTIONS="halt_on_error=1" \
  "$TSAN_BUILD_DIR/tests/numaio_tests" \
  --gtest_filter='TelemetryHub*:TelemetryServer*:TelemetryServe*'

echo "sanitize: telemetry server is clean under TSan"
