#!/usr/bin/env bash
# Build the end-to-end benchmark from the sources of this checkout, then run
# one workload:
#
#   bash bench_e2e/run.sh --workload local_heavy --seed 1 --seconds 15 --trace 0
#
# or, with no arguments, every workload in both modes at seed 1, each run
# as long as run_seconds in BENCHMARK.json.  Its last stdout line is then one
# JSON object holding every run's result under "<workload>/trace<0|1>",
# also written to <build>/work/results/all.json.
#
# Build output goes to stderr; stdout ends with one JSON result line.  The
# build tree is .bench_build/e2e at the checkout root (override with
# PHOTON_BENCH_BUILD_DIR); the first run configures and compiles, later runs
# only relink when a source changed.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
if [[ ! -f "$root/CMakeLists.txt" || ! -d "$root/src" ]]; then
  echo "bench_e2e: no Photon sources next to $here (need ../CMakeLists.txt and ../src)" >&2
  exit 2
fi

build="${PHOTON_BENCH_BUILD_DIR:-$root/.bench_build/e2e}"
# Keep the compiler's temporary files inside the build tree too.
export TMPDIR="$build/tmp"
mkdir -p "$TMPDIR"
if [[ ! -f "$build/CMakeCache.txt" ]]; then
  generator=()
  if command -v ninja >/dev/null 2>&1; then generator=(-G Ninja); fi
  cmake -S "$root" -B "$build" "${generator[@]}" -DCMAKE_BUILD_TYPE=Release \
    -DCMAKE_PROJECT_photon_INCLUDE="$here/CMakeLists.txt" >&2
fi
cmake --build "$build" --target bench_e2e -j "$(nproc)" >&2

bin="$build/bench_e2e"
if [[ $# -eq 0 ]]; then
  seconds="$(sed -n 's/^ *"run_seconds": *\([0-9][0-9]*\).*/\1/p' \
    "$root/BENCHMARK.json")"
  summary="{"
  sep=""
  for workload in $("$bin" --list); do
    for trace in 0 1; do
      out="$("$bin" --work-dir "$build/work" --workload "$workload" --seed 1 \
        --seconds "$seconds" --trace "$trace")"
      printf '%s\n' "$out" | sed '$d'
      summary+="$sep\"$workload/trace$trace\": $(printf '%s\n' "$out" | tail -n 1)"
      sep=", "
    done
  done
  summary+="}"
  printf '%s\n' "$summary" >"$build/work/results/all.json"
  printf '%s\n' "$summary"
  exit 0
fi
exec "$bin" --work-dir "$build/work" "$@"
