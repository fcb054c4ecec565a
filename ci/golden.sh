#!/usr/bin/env bash
# Golden output table. Usage: ci/golden.sh BUILD_DIR [--bless]
#
# Every line of ci/golden.txt is `SHA256 WHAT COMMAND`. The lines run in
# file order, under sh, in one scratch directory that starts with a copy
# of ci/golden/ (job files, traces, fault plans) and with the build's
# tools/, bench/ and examples/ directories first on PATH. A later line
# may read a file an earlier one wrote (`classes --in` a characterized
# model). WHAT names the bytes that are hashed:
#   stdout      the command's standard output. Standard error is never
#               hashed: a non-Release bench_e2e warns there.
#   sim_digest  the "sim_digest" field of stdout alone; the rest of a
#               bench_e2e result line is wall time.
#   FILE        the file of that name the command writes.
# A non-zero exit or a changed hash is printed, and the script exits 1
# after the last line. --bless instead rewrites every hash in place; a
# change that re-blesses names each changed line and its reason.
set -euo pipefail

ROOT=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
MANIFEST="$ROOT/ci/golden.txt"
BUILD=$(CDPATH= cd -- "${1:?usage: ci/golden.sh BUILD_DIR [--bless]}" && pwd)
BLESS=0
case ${2:-} in
  '') ;;
  --bless) BLESS=1 ;;
  *) echo "usage: ci/golden.sh BUILD_DIR [--bless]" >&2; exit 2 ;;
esac

RUN_DIR=$(mktemp -d "${TMPDIR:-/tmp}/numaio_golden_XXXXXX")
trap 'rm -rf "$RUN_DIR"' EXIT
cp "$ROOT"/ci/golden/* "$RUN_DIR"/
export PATH="$BUILD/tools:$BUILD/bench:$BUILD/examples:$PATH"

lines=0
bad=0
blessed=""
while IFS= read -r line; do
  case $line in
    '' | '#'*) blessed+="$line"$'\n'; continue ;;
  esac
  read -r want what cmd <<< "$line"
  lines=$((lines + 1))
  [ "$what" = stdout ] || [ "$what" = sim_digest ] || rm -f "$RUN_DIR/$what"
  if (cd "$RUN_DIR" && sh -c "$cmd" < /dev/null > .stdout 2> .stderr); then
    case $what in
      stdout) got=$(sha256sum < "$RUN_DIR/.stdout") ;;
      sim_digest) got=$({ grep -o '"sim_digest": "[0-9a-f]*"' \
                            "$RUN_DIR/.stdout" || true; } | sha256sum) ;;
      *) got=$(sha256sum 2> /dev/null < "$RUN_DIR/$what" || echo missing) ;;
    esac
    got=${got%% *}
  else
    got="exit $?"
  fi
  blessed+="$got $what $cmd"$'\n'
  if [ "$got" != "$want" ]; then
    bad=$((bad + 1))
    echo "MISMATCH $what: $cmd"
    echo "  want $want"
    echo "  got  $got"
    case $got in
      exit* | missing) sed -n '1,5s/^/  stderr: /p' "$RUN_DIR/.stderr" ;;
    esac
  fi
done < "$MANIFEST"

if [ "$BLESS" = 1 ]; then
  if grep -q '^exit \|^missing ' <<< "$blessed"; then
    echo "golden: not blessed, a command failed (see above)" >&2
    exit 1
  fi
  printf '%s' "$blessed" > "$MANIFEST"
  echo "golden: blessed $lines lines ($bad changed)"
  exit 0
fi
if [ "$bad" -ne 0 ]; then
  echo "golden: $bad of $lines outputs differ from ci/golden.txt"
  exit 1
fi
echo "golden: all $lines outputs match"
