#!/usr/bin/env bash
# Code census: library functions that only the tests call.
# Usage: ci/census.sh [build-dir]
#
# Configures its own tree at -O0 with -ffunction-sections, linked with
# --gc-sections, so every binary keeps exactly the functions it can
# reach. At -O0 a header-inline function is emitted (weak) wherever it
# is called, so inline and out-of-line functions are both seen. The
# shipped binaries are numaio_cli, the paper benches, bench_harness,
# bench_e2e and the examples. The census lists every numaio:: function
# that numaio_tests keeps and none of them does, and compares that list
# with ci/census.txt (one `function — reason` per line). A difference in
# either direction fails: a new test-only function must be listed with
# its reason, and a listed one that gained a shipped caller, or was
# deleted, must leave the list.
set -euo pipefail
export LC_ALL=C

ROOT=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
BUILD_DIR=${1:-"$ROOT/build-census"}
JOBS=$(nproc 2>/dev/null || echo 2)

cmake -B "$BUILD_DIR" -S "$ROOT" \
  -DCMAKE_BUILD_TYPE=Census \
  -DCMAKE_CXX_FLAGS_CENSUS="-O0 -DNDEBUG -ffunction-sections" \
  -DCMAKE_EXE_LINKER_FLAGS_CENSUS="-Wl,--gc-sections" > /dev/null

cmake --build "$BUILD_DIR" -j "$JOBS"

shipped=$(sed -n 's/^numaio_\(bench\|example\)(\([a-z0-9_]*\))$/\2/p' \
  "$ROOT/bench/CMakeLists.txt" "$ROOT/examples/CMakeLists.txt")
shipped="numaio_cli bench_harness bench_e2e $shipped"

# The numaio:: functions a binary keeps, demangled, one per line. Only
# global (T) and weak (W) text symbols: a file-local helper is reported
# through the global function that calls it. Left out are the functions
# the test sources define themselves (fixtures and the test_support and
# sim::test helpers), and constructors, destructors, assignments and
# defaulted comparisons, which the compiler writes wherever a type is
# made, copied or compared.
functions() {
  nm --defined-only "$1" | awk '$2 == "T" || $2 == "W" { print $3 }' |
    grep -E '^_ZN[KVRO]*6numaio' | grep -v '_GLOBAL__N' | c++filt |
    grep -v -E '^numaio::(sim::test|obs::test_support)::|_Test::' |
    grep -v -E '(^|[^A-Za-z0-9_])([A-Za-z_][A-Za-z0-9_]*)::~?\2\(' |
    grep -v -E '::operator==?\(' | sort -u
}

binary() {
  find "$BUILD_DIR" -type f -name "$1" -perm -u+x -print -quit
}

SCRATCH=$(mktemp -d "${TMPDIR:-/tmp}/numaio_census_XXXXXX")
trap 'rm -rf "$SCRATCH"' EXIT
for target in $shipped; do
  bin=$(binary "$target")
  [ -n "$bin" ] || { echo "census: no binary for $target" >&2; exit 1; }
  functions "$bin"
done | sort -u > "$SCRATCH/shipped"
functions "$(binary numaio_tests)" > "$SCRATCH/tests"
comm -13 "$SCRATCH/shipped" "$SCRATCH/tests" > "$SCRATCH/found"

unreasoned=$(grep -v -e '^#' -e '^$' "$ROOT/ci/census.txt" |
  grep -v ' — .' || true)
if [ -n "$unreasoned" ]; then
  echo "census: every entry of ci/census.txt needs ' — reason':" >&2
  printf '%s\n' "$unreasoned" >&2
  exit 1
fi
sed -e '/^#/d' -e '/^$/d' -e 's/ — .*//' "$ROOT/ci/census.txt" | sort -u \
  > "$SCRATCH/listed"

if cmp -s "$SCRATCH/found" "$SCRATCH/listed"; then
  echo "census: $(wc -l < "$SCRATCH/found") test-only functions, all listed"
  exit 0
fi
echo "census: test-only functions not in ci/census.txt:"
comm -23 "$SCRATCH/found" "$SCRATCH/listed" | sed 's/^/  + /'
echo "census: listed in ci/census.txt but not test-only (shipped or gone):"
comm -13 "$SCRATCH/found" "$SCRATCH/listed" | sed 's/^/  - /'
exit 1
