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
# The tier-1, ASan/UBSan and notrace trees build with warnings as errors
# (CMake's CMAKE_COMPILE_WARNING_AS_ERROR), so a new -Wall -Wextra warning
# fails its lane.  The bench_e2e lane builds as bench_e2e/run.sh does.
#
# Every ctest invocation carries a hard --timeout so a hang under injected
# faults (the failure mode the fault engine exists to prevent) fails the
# pipeline instead of wedging it, and writes its full output to
# <tree>/ci-logs/<lane>.log (a "/" in the lane name becomes "-").  The env
# lanes rerun the one tier-1 tree, whose Testing/Temporary/LastTest.log
# keeps only the last lane's run, so each lane writes a log of its own.
#
# A failed lane does not stop the script: every lane runs, one verdict line
# per lane is printed at the end, and the exit status is 1 if any failed.

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

VERDICTS=()  # one "PASS|FAIL  <lane>" line per lane, in run order
FAILED=0

# lane NAME CMD...: run one lane and record its verdict.  errexit does not
# apply inside CMD (it runs as the left side of ||), so lane bodies chain
# their steps with && and return the first failure.
lane() {
  local name="$1"; shift
  local status=0
  "$@" || status=$?
  if [[ "$status" -eq 0 ]]; then
    VERDICTS+=("PASS  $name")
  else
    VERDICTS+=("FAIL  $name (exit $status)")
    FAILED=1
  fi
}

build_tree() {
  local build_dir="$1"; shift
  local label="$1"; shift
  echo "==> [$label] configure + build ($build_dir)"
  cmake -S "$ROOT" -B "$build_dir" "$@" >/dev/null &&
    cmake --build "$build_dir" -j "$JOBS"
}

# ctest_log BUILD_DIR LABEL: the lane's ctest log path, its directory made.
ctest_log() {
  mkdir -p "$1/ci-logs" && echo "$1/ci-logs/${2//\//-}.log"
}

# ctest_tree BUILD_DIR LABEL [CTEST ARGS...]
ctest_tree() {
  local build_dir="$1"; shift
  local log
  log="$(ctest_log "$build_dir" "$1")" || return 1; shift
  ctest --test-dir "$build_dir" --output-on-failure -j "$JOBS" \
        --timeout "$PER_TEST_TIMEOUT" --output-log "$log" "$@"
}

run_suite() {
  local build_dir="$1"; shift
  local label="$1"; shift
  build_tree "$build_dir" "$label" "$@" &&
    echo "==> [$label] ctest (per-test timeout ${PER_TEST_TIMEOUT}s)" &&
    ctest_tree "$build_dir" "$label"
}

# The env lanes rerun the tier-1 tree; they fail rather than test stale
# binaries when it did not build.
TIER1_BUILT=0

tier1_lane() {
  build_tree "$ROOT/build" "tier-1" -DCMAKE_BUILD_TYPE=Release \
             -DCMAKE_COMPILE_WARNING_AS_ERROR=ON &&
    TIER1_BUILT=1 &&
    echo "==> [tier-1] ctest (per-test timeout ${PER_TEST_TIMEOUT}s)" &&
    ctest_tree "$ROOT/build" "tier-1"
}

# env_lane LABEL VAR=VALUE...: tier-1 again under the given environment.
env_lane() {
  local label="$1"; shift
  echo "==> [$label] ctest with $*"
  if [[ "$TIER1_BUILT" -ne 1 ]]; then
    echo "==> [$label] the tier-1 tree did not build" >&2
    return 1
  fi
  env "$@" ctest --test-dir "$ROOT/build" --output-on-failure \
      -j "$JOBS" --timeout "$PER_TEST_TIMEOUT" \
      --output-log "$(ctest_log "$ROOT/build" "$label")"
}

# Tier-1: the gate every PR must keep green.
lane "tier-1" tier1_lane

# SIMD cross-check (DESIGN.md §10): re-run tier-1 with runtime dispatch
# forced to the scalar table.  All variants are bit-identical by contract,
# so the suite must pass unchanged; this catches vector-only divergence
# without a separate build.
lane "tier-1/scalar" env_lane "tier-1/scalar" PHOTON_SIMD=scalar

# Same again on the AVX2 table, whose masked-tail primitives and register
# tiles differ from AVX-512's: on an AVX-512 host the default run never
# dispatches to it outside the cross-variant tests.  (Without AVX2 the
# request degrades to the best supported table.)
lane "tier-1/avx2" env_lane "tier-1/avx2" PHOTON_SIMD=avx2

# Quantized-wire cross-check (DESIGN.md §11): re-run tier-1 with every
# default-codec link forced to the q8 blockwise wire codec.  Exercises the
# streamed dequantize-and-accumulate fan-in and client error feedback under
# the whole suite.  Tests whose assertions are exact-fp32 semantics pin a
# lossless codec explicitly, so no exclusions are needed here.
lane "tier-1/q8-wire" env_lane "tier-1/q8-wire" PHOTON_WIRE_CODEC=q8

# Secure-aggregation cross-check (DESIGN.md §14): re-run tier-1 with every
# plaintext federation flipped to the pairwise-masked SecAgg path.  The
# masked fixed-point sum is bit-exact modulo the 2^-32 encode quantum, so
# the whole suite — including the parallel-vs-serial and crash-recovery
# twins — must stay green with masking on.  Tests that pin exact fp32
# aggregation semantics set privacy.ignore_env and are unaffected.
lane "tier-1/secagg" env_lane "tier-1/secagg" PHOTON_SECAGG=1

# The three env lanes together: secagg then materializes q8 updates on the
# scalar table, which drives the shared dispatch, masking and weighted-sum
# paths of both round engines in a combination no single lane reaches.
lane "tier-1/combined" env_lane "tier-1/combined" \
     PHOTON_SIMD=scalar PHOTON_WIRE_CODEC=q8 PHOTON_SECAGG=1

# Serial kernel path (DESIGN.md §6): with PHOTON_NUM_THREADS=1 the default
# kernel context never forks, so every kernel, and the real-time floors of
# bench_round_path_smoke, run on the calling thread alone.
lane "tier-1/serial" env_lane "tier-1/serial" PHOTON_NUM_THREADS=1

# The end-to-end benchmark (bench_e2e/README.md) compiles against src/ but
# sits outside the default build, so a src/ change that breaks it would
# otherwise fail only in the benchmark pipeline.  Build it the way
# bench_e2e/run.sh does and run its smoke test.
bench_e2e_lane() {
  echo "==> [bench_e2e] configure + build (build-e2e)" &&
    cmake -S "$ROOT" -B "$ROOT/build-e2e" -DCMAKE_BUILD_TYPE=Release \
          -DCMAKE_PROJECT_photon_INCLUDE="$ROOT/bench_e2e/CMakeLists.txt" \
          >/dev/null &&
    cmake --build "$ROOT/build-e2e" -j "$JOBS" --target bench_e2e &&
    echo "==> [bench_e2e] ctest -R bench_e2e_smoke" &&
    ctest --test-dir "$ROOT/build-e2e" --output-on-failure \
          -R '^bench_e2e_smoke$' --timeout "$PER_TEST_TIMEOUT" \
          --output-log "$(ctest_log "$ROOT/build-e2e" "bench_e2e")"
}
lane "bench_e2e" bench_e2e_lane

if [[ "$FAST" -eq 0 ]]; then
  # Elastic-churn TSan rerun (DESIGN.md §12): tier-1 ctest already runs the
  # async churn scenario twice inside tsan_kernel_threadpool_stress; rerun
  # it here with more repetitions so thread-scheduling jitter gets more
  # chances to surface an ordering race in the dispatch-wave / drain path.
  if [[ -x "$ROOT/build/tests/photon_tsan_stress" ]]; then
    tsan_churn_lane() {
      echo "==> [tsan-churn] photon_tsan_stress --churn-reps=8" &&
        "$ROOT/build/tests/photon_tsan_stress" --churn-reps=8
    }
    lane "tsan-churn" tsan_churn_lane
  fi

  # Hardened pass: whole tree under ASan+UBSan.  halt_on_error makes any
  # UBSan report a test failure rather than a log line.
  export ASAN_OPTIONS="detect_leaks=1:abort_on_error=1"
  export UBSAN_OPTIONS="print_stacktrace=1:halt_on_error=1"
  lane "asan+ubsan" run_suite "$ROOT/build-sanitize" "asan+ubsan" \
       -DCMAKE_BUILD_TYPE=RelWithDebInfo \
       -DPHOTON_SANITIZE=address,undefined \
       -DCMAKE_COMPILE_WARNING_AS_ERROR=ON

  # Tier-1 in the PHOTON_TRACE=OFF tree, which the obs gate below also
  # times: a test that assumes spans are compiled in fails here.  The
  # wall-clock bench_round_path_smoke runs in every other lane.
  notrace_lane() {
    build_tree "$ROOT/build-notrace" "tier-1/notrace" \
               -DCMAKE_BUILD_TYPE=Release -DPHOTON_TRACE=OFF \
               -DCMAKE_COMPILE_WARNING_AS_ERROR=ON &&
      echo "==> [tier-1/notrace] ctest (per-test timeout ${PER_TEST_TIMEOUT}s)" &&
      ctest_tree "$ROOT/build-notrace" "tier-1/notrace" \
                 -E '^bench_round_path_smoke$'
  }
  lane "tier-1/notrace" notrace_lane

  # Obs overhead gate: trace-disabled round time (default build) vs the
  # compiled-out round time (PHOTON_TRACE=OFF build), medians over
  # identical deterministic federations.
  obs_gate_lane() {
    local on_s off_s
    cmake --build "$ROOT/build" -j "$JOBS" --target bench_obs_overhead &&
      echo "==> [obs-gate] measuring (rounds=16, samples=5 per config)" &&
      "$ROOT/build/bench/bench_obs_overhead" --rounds=16 --samples=5 \
          --json="$ROOT/build/BENCH_obs_on.json" &&
      "$ROOT/build-notrace/bench/bench_obs_overhead" --rounds=16 --samples=5 \
          --json="$ROOT/build-notrace/BENCH_obs_off.json" &&
      on_s="$(sed -n 's/.*"disabled_round_s": \([0-9.e+-]*\).*/\1/p' \
              "$ROOT/build/BENCH_obs_on.json")" &&
      off_s="$(sed -n 's/.*"disabled_round_s": \([0-9.e+-]*\).*/\1/p' \
               "$ROOT/build-notrace/BENCH_obs_off.json")" &&
      awk -v on="$on_s" -v off="$off_s" 'BEGIN {
        ratio = on / off
        printf "==> [obs-gate] disabled %.6fs/round vs compiled-out %.6fs/round (%.4fx)\n", on, off, ratio
        if (ratio > 1.02) {
          print "==> [obs-gate] FAILED: trace-disabled round path regressed >2% vs PHOTON_TRACE=OFF"
          exit 1
        }
      }'
  }
  lane "obs-gate" obs_gate_lane
fi

if [[ "$COVERAGE" -eq 1 ]]; then
  coverage_lane() {
    echo "==> [coverage] gcov-instrumented build" &&
      run_suite "$ROOT/build-coverage" "coverage" \
                -DCMAKE_BUILD_TYPE=Debug -DPHOTON_COVERAGE=ON || return 1
    if command -v gcovr >/dev/null 2>&1; then
      echo "==> [coverage] gcovr summary (src/ only)"
      gcovr --root "$ROOT" --filter "$ROOT/src/" \
            --object-directory "$ROOT/build-coverage" --print-summary \
            --txt "$ROOT/build-coverage/coverage.txt" || return 1
      echo "==> [coverage] full report: build-coverage/coverage.txt"
    else
      echo "==> [coverage] gcovr not installed; skipping the summary" \
           "(.gcda files are under build-coverage/ for manual gcov runs)"
    fi
  }
  lane "coverage" coverage_lane
fi

if [[ "$SOAK_ROUNDS" -gt 0 ]]; then
  soak_lane() {
    echo "==> chaos soak: $SOAK_ROUNDS rounds" &&
      "$ROOT/build/bench/bench_faults" --rounds="$SOAK_ROUNDS" \
          --json="$ROOT/build/BENCH_faults_soak.json"
  }
  lane "chaos-soak" soak_lane
fi

if [[ "$PERF_GATE" -eq 1 ]]; then
  # Perf gate (DESIGN.md §13): quick bench run, then an exact comparison of
  # every case with the committed baseline (the gate's self-test runs in
  # tier-1 ctest).  The comparison runs even when a suite failed, say on a
  # real-time floor, so the case diff is always reported; either failure
  # fails the lane.
  perf_gate_lane() {
    local bench_ok=1 gate_ok=1
    echo "==> [perf-gate] tools/bench.sh --quick"
    "$ROOT/tools/bench.sh" --quick --skip-build \
        --out="$ROOT/build/BENCH_all.quick.json" || bench_ok=0
    if [[ "$UPDATE_BASELINE" -eq 1 && "$bench_ok" -eq 1 ]]; then
      cp "$ROOT/build/BENCH_all.quick.json" "$ROOT/BENCH_all.json" || return 1
      echo "==> [perf-gate] baseline refreshed: BENCH_all.json"
    fi
    echo "==> [perf-gate] exact comparison with the committed baseline"
    python3 "$ROOT/tools/perf_gate.py" "$ROOT/BENCH_all.json" \
        "$ROOT/build/BENCH_all.quick.json" || gate_ok=0
    if [[ "$bench_ok" -eq 0 || "$gate_ok" -eq 0 ]]; then
      echo "==> [perf-gate] FAILED (bench suites ok=$bench_ok," \
           "gate ok=$gate_ok)" >&2
      return 1
    fi
  }
  lane "perf-gate" perf_gate_lane
fi

echo "==> ci.sh: lane verdicts (each lane's ctest output:" \
     "<tree>/ci-logs/<lane>.log; the tier-1 and env lanes' tree is build/)"
printf '    %s\n' "${VERDICTS[@]}"
if [[ "$FAILED" -ne 0 ]]; then
  echo "==> ci.sh: FAILED" >&2
  exit 1
fi
echo "==> ci.sh: all green"
