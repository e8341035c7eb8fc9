#!/usr/bin/env bash
# Run every bench in bench/manifest.txt at one scale and collect its output.
#
# Usage: tools/run_benches.sh <build-dir> {ci|asan} <out-dir>
#
# Each run executes inside <out-dir>, so files a bench writes (fig7's Chrome
# trace) land there. A bench's stdout is echoed and kept in <bench>.out, and
# its `csv,` lines in <bench>.csv. Exits nonzero on the first failing run
# (a PASS_CHECK abort or a sanitizer report).
set -euo pipefail

if [ $# -ne 3 ] || { [ "$2" != ci ] && [ "$2" != asan ]; }; then
  echo "usage: $0 <build-dir> {ci|asan} <out-dir>" >&2
  exit 2
fi
root="$(cd "$(dirname "$0")/.." && pwd)"
build="$(cd "$1" && pwd)"
mode="$2"
mkdir -p "$3"
out="$(cd "$3" && pwd)"

declare -A started
while IFS='|' read -r bench ci_args asan_args; do
  read -r bench <<< "$bench"
  args="$ci_args"
  [ "$mode" = asan ] && args="$asan_args"
  read -ra argv <<< "$args"
  [ "${argv[*]-}" = "-" ] && continue
  if [ -z "${started[$bench]-}" ]; then
    started[$bench]=1
    : > "$out/$bench.out"
  fi
  echo "== $bench ${argv[*]-}" >&2
  (cd "$out" && "$build/$bench" "${argv[@]}") < /dev/null |
      tee -a "$out/$bench.out"
  grep '^csv,' "$out/$bench.out" > "$out/$bench.csv" || true
done < <(grep -vE '^[[:space:]]*(#|$)' "$root/bench/manifest.txt")
