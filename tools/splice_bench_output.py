#!/usr/bin/env python3
"""Splice rerun bench results into the main BENCH_all.json.

BENCH_all.json (photon.bench_all.v1) is the only committed bench record.
Suites from the rerun are merged case-by-case into the main document — a
partial rerun (one suite, or a few cases of one suite) refreshes just its
own entries and leaves the rest of the baseline untouched.  Bench modes
(quick/full) must match; the perf gate refuses cross-mode comparisons and
so does the splice.  A missing main file starts a fresh document.

Usage: splice_bench_output.py <main.json> <rerun.json>
"""
import json
import sys


def is_bench_all(obj):
    return isinstance(obj, dict) and obj.get("schema") == "photon.bench_all.v1"


def splice_bench_all(main_path, main_obj, rerun_path, rerun_obj):
    if main_obj.get("mode") != rerun_obj.get("mode"):
        sys.exit(f"mode mismatch: {main_path} is "
                 f"'{main_obj.get('mode')}' but {rerun_path} is "
                 f"'{rerun_obj.get('mode')}' — case values are only "
                 "comparable at identical workload sizes")
    suites = main_obj.setdefault("suites", {})
    for suite, cases in rerun_obj.get("suites", {}).items():
        target = suites.setdefault(suite, {})
        fresh = sum(1 for name in cases if name not in target)
        target.update(cases)
        print(f"{suite}: spliced {len(cases) - fresh} cases, "
              f"appended {fresh}")
    with open(main_path, "w") as f:
        json.dump(main_obj, f, indent=1, sort_keys=True)
        f.write("\n")


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    main_path, rerun_path = sys.argv[1], sys.argv[2]
    try:
        with open(main_path) as f:
            main_obj = json.load(f)
    except FileNotFoundError:
        main_obj = {}
    with open(rerun_path) as f:
        rerun_obj = json.load(f)
    if not is_bench_all(rerun_obj):
        sys.exit(f"{rerun_path}: not a photon.bench_all.v1 document")
    if not main_obj:
        main_obj = {"schema": "photon.bench_all.v1",
                    "mode": rerun_obj.get("mode"), "suites": {}}
    elif not is_bench_all(main_obj):
        sys.exit(f"{main_path}: not a photon.bench_all.v1 document")
    splice_bench_all(main_path, main_obj, rerun_path, rerun_obj)


if __name__ == "__main__":
    main()
