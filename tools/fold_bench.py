#!/usr/bin/env python3
"""Fold per-suite bench JSON outputs into one BENCH_all.json.

Unified schema (consumed by tools/perf_gate.py and committed at the repo
root as the perf-gate baseline):

    {
      "schema": "photon.bench_all.v2",
      "mode": "quick" | "full",
      "suites": {
        "<suite>": {
          "<case>": {
            "value": <number>,
            "unit": "<unit>",
            "floor": <number>          # optional absolute floor
          }
        }
      }
    }

Every case is a pure function of (seed, config): sim-clock seconds, token
and byte counts, fault counters, loss values, and bit-identity bools.
They are bit-stable across machines and thread counts, so the perf gate
compares them exactly.  Real-clock numbers are not folded: each bench
asserts its own real-time floors, and bench_e2e measures throughput.

Usage: fold_bench.py --mode=quick|full --out=BENCH_all.json \
           [round=PATH] [faults=PATH] [churn=PATH] [autotune=PATH]

A suite whose report is missing is skipped with a note; the perf gate
then fails on each of its cases.
"""
import json
import sys


def case(value, unit, floor=None):
    c = {"value": value, "unit": unit}
    if floor is not None:
        c["floor"] = floor
    return c


def fold_round(doc):
    """bench_round_path output: wire bytes + round-0 telemetry + privacy."""
    out = {}
    for r in doc.get("comm_path", []):
        # Wire bytes are a pure function of (n, K, codec, topology): a
        # change means the wire format or chunking moved.
        out[f"{r['label']}_wire_bytes"] = case(float(r["wire_bytes"]), "B")
    for r in doc.get("rounds", []):
        i = r["round"]
        out[f"round{i}_comm_bytes"] = case(float(r["comm_bytes"]), "B")
        out[f"round{i}_train_loss"] = case(r["mean_train_loss"], "loss")
    # Privacy matrix (DESIGN.md §14): every arm metric is a pure function
    # of (seed, config) — loss, sim clock, recovery counts, and the RDP
    # accountant's epsilon are all pinned exactly.
    for arm in doc.get("privacy", {}).get("arms", []):
        label = arm["arm"]
        out[f"privacy_{label}_final_loss"] = case(arm["final_loss"], "loss")
        out[f"privacy_{label}_sim_s"] = case(arm["sim_seconds"], "s")
        out[f"privacy_{label}_comm_bytes"] = case(
            float(arm["comm_bytes"]), "B")
        out[f"privacy_{label}_dropouts_recovered"] = case(
            float(arm["dropouts_recovered"]), "count")
        if arm.get("dp_epsilon", -1.0) >= 0.0:
            out[f"privacy_{label}_epsilon"] = case(arm["dp_epsilon"], "eps")
    return out


def fold_faults(doc):
    """bench_faults chaos soak: every counter is sim-deterministic."""
    out = {}
    for key in ("crashed", "link_failed", "straggler_drops", "dropped",
                "cohort_retries", "link_retries", "corrupt_chunks",
                "topology_fallbacks"):
        if key in doc:
            out[key] = case(float(doc[key]), "count")
    if "backoff_seconds" in doc:
        out["backoff_sim_s"] = case(doc["backoff_seconds"], "s")
    for key in ("serial_parallel_bit_identical",
                "link_faults_bit_identical_to_fault_free"):
        if key in doc:
            out[key] = case(1.0 if doc[key] else 0.0, "bool", floor=1.0)
    return out


def fold_churn(doc):
    """bench_faults --churn: async admission / staleness counters."""
    out = {}
    for key in ("admission_deferred", "discarded_updates", "arrivals",
                "departures", "active_population", "max_staleness"):
        if key in doc:
            out[key] = case(float(doc[key]), "count")
    if "mean_staleness" in doc:
        out["mean_staleness"] = case(doc["mean_staleness"], "rounds")
    if "final_train_loss" in doc:
        out["final_train_loss"] = case(doc["final_train_loss"], "loss")
    if "serial_parallel_bit_identical" in doc:
        out["serial_parallel_bit_identical"] = case(
            1.0 if doc["serial_parallel_bit_identical"] else 0.0, "bool",
            floor=1.0)
    return out


def fold_autotune(doc):
    """bench_autotune emits the unified case schema natively."""
    return dict(doc.get("autotune", {}))


FOLDERS = {
    "round": fold_round,
    "faults": fold_faults,
    "churn": fold_churn,
    "autotune": fold_autotune,
}


def main():
    mode = None
    out_path = None
    inputs = {}
    for arg in sys.argv[1:]:
        if arg.startswith("--mode="):
            mode = arg.split("=", 1)[1]
        elif arg.startswith("--out="):
            out_path = arg.split("=", 1)[1]
        elif "=" in arg:
            suite, path = arg.split("=", 1)
            if suite not in FOLDERS:
                sys.exit(f"unknown suite '{suite}' "
                         f"(expected one of {sorted(FOLDERS)})")
            inputs[suite] = path
        else:
            sys.exit(__doc__)
    if mode not in ("quick", "full") or out_path is None or not inputs:
        sys.exit(__doc__)

    suites = {}
    for suite, path in inputs.items():
        try:
            with open(path) as f:
                doc = json.load(f)
        except FileNotFoundError:
            print(f"fold_bench: {suite}: {path} missing, skipped",
                  file=sys.stderr)
            continue
        cases = FOLDERS[suite](doc)
        if cases:
            suites[suite] = cases
            print(f"fold_bench: {suite}: {len(cases)} cases from {path}")

    with open(out_path, "w") as f:
        json.dump({"schema": "photon.bench_all.v2", "mode": mode,
                   "suites": suites}, f, indent=1, sort_keys=True)
        f.write("\n")
    total = sum(len(c) for c in suites.values())
    print(f"fold_bench: wrote {out_path}: {len(suites)} suites, "
          f"{total} cases")


if __name__ == "__main__":
    main()
