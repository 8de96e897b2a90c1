#!/usr/bin/env bash
# Smoke test of the end-to-end benchmark: every workload in both modes at its
# shortest length (untraced passes as long as the reference window, 2 traced
# rounds or 10 traced drains),
# with every output check on, and the printed metric names and units
# compared against BENCHMARK.json.
#
#   smoke.sh <bench_e2e binary> <BENCHMARK.json> <work dir>
set -euo pipefail

bin="$1"
declared="$2"
work="$3"
for workload in $("$bin" --list); do
  for trace in 0 1; do
    "$bin" --workload "$workload" --trace "$trace" --smoke \
      --expect-names "$declared" --work-dir "$work" >/dev/null
  done
done
echo "bench_e2e_smoke: OK"
