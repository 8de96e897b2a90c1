#!/usr/bin/env bash
# Unified bench harness: run the engine bench suites serially and fold
# their reports into one BENCH_all.json (schema photon.bench_all.v2; see
# tools/fold_bench.py for the case layout).
#
#   tools/bench.sh                 # full suites -> build/BENCH_all.json
#   tools/bench.sh --quick         # CI perf-gate sizing (smoke suites; the
#                                  # autotune grid always runs in full)
#   tools/bench.sh --out=PATH      # write the folded document elsewhere
#   tools/bench.sh --skip-build    # reuse existing binaries
#
# Every folded case is a pure function of (seed, config): sim seconds,
# counters, losses, wire bytes.  They feed the CI perf gate
# (tools/ci.sh --perf-gate), which compares them exactly with the committed
# baseline at the repo root, BENCH_all.json, generated with --quick to
# match the gate.  The suites also assert their own real-time floors, so
# they run serially: sharing cores between benches makes timings noise.
#
# Each suite's report is deleted before the suite runs, so a suite that
# writes nothing is never folded from a previous run.  Every report that
# was written is folded; then the script names each suite that failed and
# exits 1.

set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
JOBS="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"
BUILD="$ROOT/build"
MODE=full
OUT=""
SKIP_BUILD=0

while [[ $# -gt 0 ]]; do
  case "$1" in
    --quick) MODE=quick; shift ;;
    --out=*) OUT="${1#--out=}"; shift ;;
    --skip-build) SKIP_BUILD=1; shift ;;
    *) echo "unknown argument: $1" >&2; exit 2 ;;
  esac
done
[[ -n "$OUT" ]] || OUT="$BUILD/BENCH_all.json"

if [[ "$SKIP_BUILD" -eq 0 ]]; then
  echo "==> bench.sh: build ($BUILD)"
  cmake -S "$ROOT" -B "$BUILD" -DCMAKE_BUILD_TYPE=Release >/dev/null
  cmake --build "$BUILD" -j "$JOBS" --target \
        bench_round_path bench_faults bench_autotune >/dev/null
fi

WORK="$BUILD/bench_out"
mkdir -p "$WORK"
cd "$WORK"

FAILED=()
REPORTS=()
run() {  # run <suite> <binary> [args...]; writes $WORK/BENCH_<suite>.json
  local suite="$1"; shift
  local report="$WORK/BENCH_$suite.json"
  rm -f "$report"
  echo "==> bench.sh [$MODE] $suite: $*"
  "$@" --json="$report" >/dev/null || FAILED+=("$suite")
  if [[ -f "$report" ]]; then
    REPORTS+=("$suite=$report")
  fi
}

if [[ "$MODE" == "quick" ]]; then
  run round "$BUILD/bench/bench_round_path" --smoke
  run faults "$BUILD/bench/bench_faults" --smoke
  run churn "$BUILD/bench/bench_faults" --churn --smoke
else
  run round "$BUILD/bench/bench_round_path"
  run faults "$BUILD/bench/bench_faults" --rounds=50
  run churn "$BUILD/bench/bench_faults" --churn
fi

# The autotuned-vs-static grid always runs at full size: its deterministic
# s/Mtok cells and never-worse-than-static floors are the headline content
# of the perf gate, and quick-sized cells would not be comparable.
run autotune "$BUILD/bench/bench_autotune"

python3 "$ROOT/tools/fold_bench.py" --mode="$MODE" --out="$OUT" \
    "${REPORTS[@]}" || FAILED+=(fold)

if [[ ${#FAILED[@]} -gt 0 ]]; then
  echo "==> bench.sh: FAILED suites: ${FAILED[*]} (folded what was written" \
       "into $OUT)" >&2
  exit 1
fi
echo "==> bench.sh: done ($OUT)"
