#!/usr/bin/env bash
# Tier-1 CI gate plus a hardened sanitizer pass.
#
#   tools/ci.sh             # tier-1 (Release) + bench_e2e smoke + ASan/UBSan
#                           # build + tier-1 in the PHOTON_TRACE=OFF tree +
#                           # obs gate
#   tools/ci.sh --fast      # tier-1 + bench_e2e smoke only
#   tools/ci.sh --soak N    # additionally run an N-round chaos soak (default 200)
#   tools/ci.sh --coverage  # additionally build with gcov instrumentation,
#                           # ctest it, and summarize via gcovr if installed
#   tools/ci.sh --perf-gate # additionally run tools/bench.sh --quick and
#                           # compare every case exactly with the committed
#                           # BENCH_all.json baseline (any change fails;
#                           # add --update-baseline to refresh it instead)
#
# The obs gate (DESIGN.md §9) times the PHOTON_TRACE=OFF tree that the
# notrace lane builds and tests, and fails the pipeline if the default
# build's trace-DISABLED round time is more than 2% slower than the
# compiled-out round time — i.e. the instrumentation sites must be free
# when not in use.
#
# Every ctest invocation carries a hard --timeout so a hang under injected
# faults (the failure mode the fault engine exists to prevent) fails the
# pipeline instead of wedging it.

set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
JOBS="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"
PER_TEST_TIMEOUT=300   # seconds; generous for the sanitized build
FAST=0
SOAK_ROUNDS=0
COVERAGE=0
PERF_GATE=0
UPDATE_BASELINE=0

while [[ $# -gt 0 ]]; do
  case "$1" in
    --fast) FAST=1; shift ;;
    --soak) SOAK_ROUNDS="${2:-200}"; shift 2 ;;
    --coverage) COVERAGE=1; shift ;;
    --perf-gate) PERF_GATE=1; shift ;;
    --update-baseline) UPDATE_BASELINE=1; shift ;;
    *) echo "unknown argument: $1" >&2; exit 2 ;;
  esac
done

run_suite() {
  local build_dir="$1"; shift
  local label="$1"; shift
  echo "==> [$label] configure + build ($build_dir)"
  cmake -S "$ROOT" -B "$build_dir" "$@" >/dev/null
  cmake --build "$build_dir" -j "$JOBS"
  echo "==> [$label] ctest (per-test timeout ${PER_TEST_TIMEOUT}s)"
  ctest --test-dir "$build_dir" --output-on-failure -j "$JOBS" \
        --timeout "$PER_TEST_TIMEOUT"
}

# Tier-1: the gate every PR must keep green.
run_suite "$ROOT/build" "tier-1" -DCMAKE_BUILD_TYPE=Release

# SIMD cross-check (DESIGN.md §10): re-run tier-1 with runtime dispatch
# forced to the scalar table.  All variants are bit-identical by contract,
# so the suite must pass unchanged; this catches vector-only divergence
# without a separate build.
echo "==> [tier-1/scalar] ctest with PHOTON_SIMD=scalar"
PHOTON_SIMD=scalar ctest --test-dir "$ROOT/build" --output-on-failure \
      -j "$JOBS" --timeout "$PER_TEST_TIMEOUT"

# Same again on the AVX2 table, whose masked-tail primitives and register
# tiles differ from AVX-512's: on an AVX-512 host the default run never
# dispatches to it outside the cross-variant tests.  (Without AVX2 the
# request degrades to the best supported table.)
echo "==> [tier-1/avx2] ctest with PHOTON_SIMD=avx2"
PHOTON_SIMD=avx2 ctest --test-dir "$ROOT/build" --output-on-failure \
      -j "$JOBS" --timeout "$PER_TEST_TIMEOUT"

# Quantized-wire cross-check (DESIGN.md §11): re-run tier-1 with every
# default-codec link forced to the q8 blockwise wire codec.  Exercises the
# streamed dequantize-and-accumulate fan-in and client error feedback under
# the whole suite.  Tests whose assertions are exact-fp32 semantics pin a
# lossless codec explicitly, so no exclusions are needed here.
echo "==> [tier-1/q8-wire] ctest with PHOTON_WIRE_CODEC=q8"
PHOTON_WIRE_CODEC=q8 ctest --test-dir "$ROOT/build" --output-on-failure \
      -j "$JOBS" --timeout "$PER_TEST_TIMEOUT"

# Secure-aggregation cross-check (DESIGN.md §14): re-run tier-1 with every
# plaintext federation flipped to the pairwise-masked SecAgg path.  The
# masked fixed-point sum is bit-exact modulo the 2^-32 encode quantum, so
# the whole suite — including the parallel-vs-serial and crash-recovery
# twins — must stay green with masking on.  Tests that pin exact fp32
# aggregation semantics set privacy.ignore_env and are unaffected.
echo "==> [tier-1/secagg] ctest with PHOTON_SECAGG=1"
PHOTON_SECAGG=1 ctest --test-dir "$ROOT/build" --output-on-failure \
      -j "$JOBS" --timeout "$PER_TEST_TIMEOUT"

# The three env lanes together: secagg then materializes q8 updates on the
# scalar table, which drives the shared dispatch, masking and weighted-sum
# paths of both round engines in a combination no single lane reaches.
echo "==> [tier-1/combined] ctest with PHOTON_SIMD=scalar PHOTON_WIRE_CODEC=q8 PHOTON_SECAGG=1"
PHOTON_SIMD=scalar PHOTON_WIRE_CODEC=q8 PHOTON_SECAGG=1 \
  ctest --test-dir "$ROOT/build" --output-on-failure \
      -j "$JOBS" --timeout "$PER_TEST_TIMEOUT"

# Serial kernel path (DESIGN.md §6): with PHOTON_NUM_THREADS=1 the default
# kernel context never forks, so every kernel, and the real-time floors of
# bench_round_path_smoke, run on the calling thread alone.
echo "==> [tier-1/serial] ctest with PHOTON_NUM_THREADS=1"
PHOTON_NUM_THREADS=1 ctest --test-dir "$ROOT/build" --output-on-failure \
      -j "$JOBS" --timeout "$PER_TEST_TIMEOUT"

# The end-to-end benchmark (bench_e2e/README.md) compiles against src/ but
# sits outside the default build, so a src/ change that breaks it would
# otherwise fail only in the benchmark pipeline.  Build it the way
# bench_e2e/run.sh does and run its smoke test.
echo "==> [bench_e2e] configure + build (build-e2e)"
cmake -S "$ROOT" -B "$ROOT/build-e2e" -DCMAKE_BUILD_TYPE=Release \
      -DCMAKE_PROJECT_photon_INCLUDE="$ROOT/bench_e2e/CMakeLists.txt" >/dev/null
cmake --build "$ROOT/build-e2e" -j "$JOBS" --target bench_e2e
echo "==> [bench_e2e] ctest -R bench_e2e_smoke"
ctest --test-dir "$ROOT/build-e2e" --output-on-failure -R '^bench_e2e_smoke$' \
      --timeout "$PER_TEST_TIMEOUT"

if [[ "$FAST" -eq 0 ]]; then
  # Elastic-churn TSan rerun (DESIGN.md §12): tier-1 ctest already runs the
  # async churn scenario twice inside tsan_kernel_threadpool_stress; rerun
  # it here with more repetitions so thread-scheduling jitter gets more
  # chances to surface an ordering race in the dispatch-wave / drain path.
  if [[ -x "$ROOT/build/tests/photon_tsan_stress" ]]; then
    echo "==> [tsan-churn] photon_tsan_stress --churn-reps=8"
    "$ROOT/build/tests/photon_tsan_stress" --churn-reps=8
  fi

  # Hardened pass: whole tree under ASan+UBSan.  halt_on_error makes any
  # UBSan report a test failure rather than a log line.
  export ASAN_OPTIONS="detect_leaks=1:abort_on_error=1"
  export UBSAN_OPTIONS="print_stacktrace=1:halt_on_error=1"
  run_suite "$ROOT/build-sanitize" "asan+ubsan" \
            -DCMAKE_BUILD_TYPE=RelWithDebInfo \
            -DPHOTON_SANITIZE=address,undefined

  # Tier-1 in the PHOTON_TRACE=OFF tree, which the obs gate below also
  # times: a test that assumes spans are compiled in fails here.  The
  # wall-clock bench_round_path_smoke runs in every other lane.
  echo "==> [tier-1/notrace] configure + build (build-notrace)"
  cmake -S "$ROOT" -B "$ROOT/build-notrace" -DCMAKE_BUILD_TYPE=Release \
        -DPHOTON_TRACE=OFF >/dev/null
  cmake --build "$ROOT/build-notrace" -j "$JOBS"
  echo "==> [tier-1/notrace] ctest (per-test timeout ${PER_TEST_TIMEOUT}s)"
  ctest --test-dir "$ROOT/build-notrace" --output-on-failure -j "$JOBS" \
        --timeout "$PER_TEST_TIMEOUT" -E '^bench_round_path_smoke$'

  # Obs overhead gate: trace-disabled round time (default build) vs the
  # compiled-out round time (PHOTON_TRACE=OFF build), medians over
  # identical deterministic federations.
  cmake --build "$ROOT/build" -j "$JOBS" --target bench_obs_overhead
  echo "==> [obs-gate] measuring (rounds=16, samples=5 per config)"
  "$ROOT/build/bench/bench_obs_overhead" --rounds=16 --samples=5 \
      --json="$ROOT/build/BENCH_obs_on.json"
  "$ROOT/build-notrace/bench/bench_obs_overhead" --rounds=16 --samples=5 \
      --json="$ROOT/build-notrace/BENCH_obs_off.json"
  ON_S="$(sed -n 's/.*"disabled_round_s": \([0-9.e+-]*\).*/\1/p' \
          "$ROOT/build/BENCH_obs_on.json")"
  OFF_S="$(sed -n 's/.*"disabled_round_s": \([0-9.e+-]*\).*/\1/p' \
           "$ROOT/build-notrace/BENCH_obs_off.json")"
  awk -v on="$ON_S" -v off="$OFF_S" 'BEGIN {
    ratio = on / off
    printf "==> [obs-gate] disabled %.6fs/round vs compiled-out %.6fs/round (%.4fx)\n", on, off, ratio
    if (ratio > 1.02) {
      print "==> [obs-gate] FAILED: trace-disabled round path regressed >2% vs PHOTON_TRACE=OFF"
      exit 1
    }
  }'
fi

if [[ "$COVERAGE" -eq 1 ]]; then
  echo "==> [coverage] gcov-instrumented build"
  run_suite "$ROOT/build-coverage" "coverage" \
            -DCMAKE_BUILD_TYPE=Debug -DPHOTON_COVERAGE=ON
  if command -v gcovr >/dev/null 2>&1; then
    echo "==> [coverage] gcovr summary (src/ only)"
    gcovr --root "$ROOT" --filter "$ROOT/src/" \
          --object-directory "$ROOT/build-coverage" --print-summary \
          --txt "$ROOT/build-coverage/coverage.txt"
    echo "==> [coverage] full report: build-coverage/coverage.txt"
  else
    echo "==> [coverage] gcovr not installed; skipping the summary" \
         "(.gcda files are under build-coverage/ for manual gcov runs)"
  fi
fi

if [[ "$SOAK_ROUNDS" -gt 0 ]]; then
  echo "==> chaos soak: $SOAK_ROUNDS rounds"
  "$ROOT/build/bench/bench_faults" --rounds="$SOAK_ROUNDS" \
      --json="$ROOT/build/BENCH_faults_soak.json"
fi

if [[ "$PERF_GATE" -eq 1 ]]; then
  # Perf gate (DESIGN.md §13): quick bench run, then an exact comparison of
  # every case with the committed baseline (the gate's self-test runs in
  # tier-1 ctest).  The comparison runs even when a suite failed, say on a
  # real-time floor, so the case diff is always reported; either failure
  # fails the pipeline.
  echo "==> [perf-gate] tools/bench.sh --quick"
  BENCH_OK=1
  "$ROOT/tools/bench.sh" --quick --skip-build \
      --out="$ROOT/build/BENCH_all.quick.json" || BENCH_OK=0
  if [[ "$UPDATE_BASELINE" -eq 1 && "$BENCH_OK" -eq 1 ]]; then
    cp "$ROOT/build/BENCH_all.quick.json" "$ROOT/BENCH_all.json"
    echo "==> [perf-gate] baseline refreshed: BENCH_all.json"
  fi
  echo "==> [perf-gate] exact comparison with the committed baseline"
  GATE_OK=1
  python3 "$ROOT/tools/perf_gate.py" "$ROOT/BENCH_all.json" \
      "$ROOT/build/BENCH_all.quick.json" || GATE_OK=0
  if [[ "$BENCH_OK" -eq 0 || "$GATE_OK" -eq 0 ]]; then
    echo "==> [perf-gate] FAILED (bench suites ok=$BENCH_OK," \
         "gate ok=$GATE_OK)" >&2
    exit 1
  fi
fi

echo "==> ci.sh: all green"
