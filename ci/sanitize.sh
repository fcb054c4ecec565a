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

# halt_on_error: the first sanitizer report fails the test run instead of
# scrolling past; detect_leaks exercises the Host/Buffer ownership paths.
export ASAN_OPTIONS="halt_on_error=1:detect_leaks=1"
export UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1"

# Runs the numaio_tests of build tree $1 on the --gtest_filter $2. Each
# pattern of the filter must select a test: a pattern whose suite was
# renamed or deleted would otherwise pass silently, testing nothing.
run_gtest() {
  local tests="$1/tests/numaio_tests" pattern listed
  local -a patterns
  IFS=: read -ra patterns <<< "$2"
  for pattern in "${patterns[@]}"; do
    listed=$("$tests" --gtest_list_tests --gtest_filter="$pattern")
    if ! grep -q '^  ' <<< "$listed"; then
      echo "sanitize: --gtest_filter pattern '$pattern' selects no test" >&2
      exit 1
    fi
  done
  "$tests" --gtest_filter="$2"
}

# The solver property suite runs first, on its own: it is the randomized
# stress for the CSR arena / free-list / incidence bookkeeping (including
# bit-identical churn vs the reference solver), exactly the code where an
# out-of-bounds arena index or stale incidence back-pointer would hide.
run_gtest "$BUILD_DIR" '*SolverProperty*:FlowSolverCache.*:FlowSolverFreeList.*:FlowSolverCapacityFactor.*:FlowSolverScratch.*:FlowSolverStatus.*'

# The fleet serving suite also runs standalone: its runtime is the one
# place where event-engine callbacks hold (id, generation) handles across
# host crashes that tear down in-flight state — exactly where a stale
# pointer or double-detach would surface as a use-after-free. The scale
# suite (FleetScale) adds the batched admission path and 2,000-tenant
# storm runs; FleetProperty runs random configs under random host-fault
# plans; AlarmEngine covers the completion-alarm heap and its merge hook.
# The fault plan and injector suites run here too: the fleet asks
# FaultInjector::host_factor on every host touch, and both read every
# kind through the one kind table.
run_gtest "$BUILD_DIR" 'TokenBucket*:*BoundedQueue*:CircuitBreaker*:AdmissionStatus*:FleetSim*:FleetScale*:*FleetProperty*:*AlarmEngine*:FaultPlanFile*:FaultPlanTest.*:FaultInjectorTest.*'

# The fluid simulation runs standalone too: every deferred transfer
# start and control closure lives in its AlarmEngine's slot arena, and
# aborts cancel pending starts through handles, so a stale handle or a
# closure outliving its slot would surface here. The fio suite drives
# deadlines, retries and aborts through it; RateTrace reads the
# segments it records.
run_gtest "$BUILD_DIR" '*Fluid*:RateTrace.*:FioTest.*'

# The trace text path runs standalone as well: the JSONL cursor reads
# keys and strings as string_views into the line and the serializers
# render into reused buffers, so an out-of-bounds read in the cursor or a
# render buffer would hide here. Random round trips, mutation fuzz of
# every text parser (fault plans and the telemetry server's request
# line included), number-grammar pins (the JSONL reader's and the
# whole-token grammar of every other text input, format by format), the
# metrics JSON round trip, the shared JSON reader (escape decoding, the
# nesting cap, report parse-back) and the transfer-trace CSV parser.
run_gtest "$BUILD_DIR" '*TraceRoundTrip*:*ParserFuzz*:ParseTraceJsonl*:NumberGrammar.*:Metrics.*:Json.*:ReportJson.*:Trace.*'

# The suite includes bench_e2e_smoke, so all four bench/e2e workloads run
# under the sanitizers too, at a tiny size.
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
  run_gtest "$TSAN_BUILD_DIR" 'TelemetryHub*:TelemetryServer*:TelemetryServe*'

echo "sanitize: telemetry server is clean under TSan"
