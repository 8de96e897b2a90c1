#!/usr/bin/env python3
"""CI perf gate over BENCH_all.json (photon.bench_all.v2).

Every case in BENCH_all.json is a pure function of (seed, config), so the
gate is one exact comparison.  A candidate passes when all of these hold:

  * it has the baseline's schema and mode (case values are only comparable
    at identical workload sizes);
  * it has exactly the baseline's set of cases, so a dropped case and an
    added case both fail;
  * every value equals the baseline's within a 1e-9 relative tolerance;
  * every value meets the baseline's floor for that case.

Usage:
  perf_gate.py <baseline.json> <candidate.json>
  perf_gate.py --self-test <baseline.json>

--self-test proves the gate has teeth: the baseline must pass against
itself, and each of these candidates must fail with a message naming what
broke: one value moved by 1e-6 relative, one case dropped, one case added,
one floor breached, and a v1 document.
"""
import copy
import json
import sys

SCHEMA = "photon.bench_all.v2"
EXACT_REL_TOL = 1e-9


def load(path):
    with open(path) as f:
        return json.load(f)


def cases_of(doc):
    return {f"{suite}/{name}": c
            for suite, cases in doc.get("suites", {}).items()
            for name, c in cases.items()}


def compare(base, cand):
    """Returns one message per failure; empty when the candidate passes."""
    for doc, role in ((base, "baseline"), (cand, "candidate")):
        if doc.get("schema") != SCHEMA:
            return [f"{role} schema '{doc.get('schema')}' is not {SCHEMA}"]
    if base.get("mode") != cand.get("mode"):
        return [f"mode mismatch: baseline '{base.get('mode')}' vs "
                f"candidate '{cand.get('mode')}'"]
    failures = []
    base_cases, cand_cases = cases_of(base), cases_of(cand)
    for key in sorted(base_cases.keys() - cand_cases.keys()):
        failures.append(f"{key}: case missing from candidate")
    for key in sorted(cand_cases.keys() - base_cases.keys()):
        failures.append(f"{key}: case not in baseline")
    for key in sorted(base_cases.keys() & cand_cases.keys()):
        b, c = base_cases[key], cand_cases[key]
        bv, cv = b["value"], c["value"]
        if abs(cv - bv) > EXACT_REL_TOL * max(1.0, abs(bv)):
            failures.append(f"{key}: value changed {bv:.9g} -> {cv:.9g}")
        if "floor" in b and cv < b["floor"]:
            failures.append(f"{key}: value {cv:.6g} below floor "
                            f"{b['floor']:.6g} ({b.get('unit', '')})")
    return failures


def self_test(baseline_path):
    base = load(baseline_path)
    clean = compare(base, base)
    if clean:
        print("perf_gate: SELF-TEST FAILED — baseline does not pass "
              "against itself:")
        for f in clean:
            print(f"  {f}")
        return 1

    base_cases = cases_of(base)
    keys = sorted(base_cases)
    moved = next(k for k in keys if base_cases[k]["value"] != 0.0)
    floored = next(k for k in keys if "floor" in base_cases[k])
    dropped = keys[0]
    added = dropped.split("/", 1)[0] + "/self_test_extra"

    def at(doc, key):
        suite, name = key.split("/", 1)
        return doc["suites"][suite], name

    def move(doc):
        cases, name = at(doc, moved)
        cases[name]["value"] *= 1.0 + 1e-6

    def drop(doc):
        cases, name = at(doc, dropped)
        del cases[name]

    def add(doc):
        cases, name = at(doc, added)
        cases[name] = {"value": 1.0, "unit": "count"}

    def breach(doc):
        cases, name = at(doc, floored)
        cases[name]["value"] = cases[name]["floor"] - 1.0

    def v1(doc):
        doc["schema"] = "photon.bench_all.v1"

    # (what breaks, the name its failure must carry, the failure kind)
    trials = [
        (move, moved, "value changed"),
        (drop, dropped, "missing from candidate"),
        (add, added, "not in baseline"),
        (breach, floored, "below floor"),
        (v1, "photon.bench_all.v1", "schema"),
    ]
    ok = True
    for mutate, name, kind in trials:
        cand = copy.deepcopy(base)
        mutate(cand)
        caught = any(name in f and kind in f for f in compare(base, cand))
        print(f"perf_gate: self-test {mutate.__name__}: "
              f"{'caught' if caught else 'MISSED'} ({name}: {kind})")
        ok = ok and caught
    if not ok:
        print("perf_gate: SELF-TEST FAILED")
        return 1
    print(f"perf_gate: self-test OK — the baseline's {len(keys)} cases "
          f"pass, all {len(trials)} broken candidates fail")
    return 0


def main():
    args = sys.argv[1:]
    if len(args) == 2 and args[0] == "--self-test":
        sys.exit(self_test(args[1]))
    if len(args) != 2 or any(a.startswith("--") for a in args):
        sys.exit(__doc__)
    cand = load(args[1])
    failures = compare(load(args[0]), cand)
    if failures:
        print(f"perf_gate: FAILED ({len(failures)} failures):")
        for f in failures:
            print(f"  {f}")
        print("perf_gate: if intentional, refresh the baseline with "
              "tools/ci.sh --perf-gate --update-baseline")
        sys.exit(1)
    print(f"perf_gate: OK — {len(cases_of(cand))} cases equal the "
          "baseline")


if __name__ == "__main__":
    main()
