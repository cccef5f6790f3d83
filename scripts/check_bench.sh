#!/usr/bin/env bash
# Perf-regression gate: re-runs the trajectory-anchored benches and diffs
# their BENCH_*.json artifacts against bench/trajectory/ with
# bench/compare.py. Each bench is compared with the latest snapshot that
# recorded it, so a snapshot holding only some benches (pr9 holds only
# bench_strategies) does not leave the others ungated.
#
# Usage:
#   scripts/check_bench.sh [--build-dir=DIR] [--threshold=F]
#
# The threshold defaults to 0.02 (2% relative). Wall-clock metrics on a
# busy host jitter well beyond that — compare.py already ignores sub-100 ms
# absolute deltas, and its output says which metrics are informational —
# so treat a failure here as "re-run and confirm", not as an instant
# verdict. Deterministic metrics (events, PDR, counters) must not move at
# all; any delta there is a behavior change, not noise.
set -eu

BUILD_DIR=build
THRESHOLD=0.02
for arg in "$@"; do
  case "$arg" in
    --build-dir=*) BUILD_DIR="${arg#--build-dir=}" ;;
    --threshold=*) THRESHOLD="${arg#--threshold=}" ;;
    *) echo "unknown argument: $arg" >&2; exit 2 ;;
  esac
done

cd "$(dirname "$0")/.."

REPO=$(pwd -P)
OUT=$(mktemp -d)
BASELINE="$OUT/baseline"
CURRENT="$OUT/current"
mkdir "$BASELINE" "$CURRENT"
trap 'rm -rf "$OUT"' EXIT

# Trajectory dirs are named pr<N>. Walking them in version order, a later
# snapshot's BENCH_<name>.json replaces an earlier one, which leaves the
# latest recording of every bench in $BASELINE.
SNAPSHOTS=$(ls -d bench/trajectory/*/ 2>/dev/null | sort -V)
for snap in $SNAPSHOTS; do
  for json in "$snap"BENCH_*.json; do
    [ -e "$json" ] || continue
    ln -sf "$REPO/$json" "$BASELINE/$(basename "$json")"
  done
done
ANCHORED=$(cd "$BASELINE" && ls BENCH_*.json 2>/dev/null | sed 's/^BENCH_//; s/\.json$//')
if [ -z "$ANCHORED" ]; then
  echo "no bench/trajectory/ snapshot to compare against" >&2
  exit 1
fi
echo "baselines (threshold ${THRESHOLD}):"
for name in $ANCHORED; do
  echo "  $name: $(readlink "$BASELINE/BENCH_$name.json" | sed "s|^$REPO/||")"
done

for name in $ANCHORED; do
  bin="$REPO/$BUILD_DIR/bench/$name"
  if [ ! -x "$bin" ]; then
    echo "missing bench binary $bin; build first" >&2
    exit 1
  fi
  echo "running $name ..."
  (cd "$CURRENT" && "$bin" --json >/dev/null)
done

python3 bench/compare.py "$BASELINE" "$CURRENT" --threshold="$THRESHOLD"
