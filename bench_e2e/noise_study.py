#!/usr/bin/env python3
"""Noise study of the end-to-end benchmark.

Three studies, each stored under its own key of the output file (the other
keys are kept):

  seeds       --trace 0 over seeds 1..N, twice (set A and set B, alternating
              which set runs first for each seed).  This is the acceptance
              check of BENCHMARK.json: run-to-run noise plus the variance
              between seeds.
  fixed_seed  --trace 0 at seed 1, N runs per set, sets alternating.  Host
              noise alone: every run does the same work.
  per_layer   --trace 1 at seed 1, N runs; the median of each per-layer
              metric and the clients-trained line of each workload.

For each workload and end-to-end metric, the first two record each set's
median and quartiles (statistics.quantiles(values, n=4)), its spread
(q3 - q1) / median, and the drift, how much worse set B's median is than set
A's, as a share.  A metric whose bound is below 1e-6 is exact: it passes
only if every run printed the same value.  Any other metric passes when its
drift and, setup_s excepted, both spreads stay within its bound; it is
steady when both spreads are below a third of the bound.  Run from the
repository root:

  python3 bench_e2e/noise_study.py seeds [--runs 10]
  python3 bench_e2e/noise_study.py fixed_seed [--runs 5]
  python3 bench_e2e/noise_study.py per_layer [--runs 3]
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

EXACT = 1e-6
TRAINED = re.compile(r"clients trained: (\d+) of (\d+) after (\d+) traced "
                     r"rounds, (\d+) after (\d+)")


def run(workload, seed, seconds, trace):
    cmd = ["bash", "bench_e2e/run.sh", "--workload", workload, "--seed",
           str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
    lines = out.strip().splitlines()
    info = {"host": {}}
    for line in lines:
        line = line.strip()
        if line.startswith("host."):
            key, _, value = line[5:].partition("=")
            info["host"][key.strip()] = value.strip()
        m = TRAINED.match(line)
        if m:
            a, pop, w, b, n = map(int, m.groups())
            info["clients_trained"] = {
                "population": pop, "after_rounds": [w, n], "trained": [a, b]}
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: output checks failed")
    return result, info


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / q2 if q2 else 0.0, "values": values}


def set_study(bench, runs, fixed):
    """Two alternating sets of --trace 0 runs; returns (report, ok)."""
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    values = {s: {w: {m: [] for m in metrics} for w in workloads}
              for s in ("A", "B")}
    host = {}
    for i in range(runs):
        seed = 1 if fixed else i + 1
        for set_name in (("A", "B") if i % 2 == 0 else ("B", "A")):
            for w in workloads:
                result, info = run(w, seed, seconds, 0)
                host = info["host"]
                for m in metrics:
                    values[set_name][w][m].append(
                        result["metrics"][m]["value"])
                print(f"run {i + 1} seed {seed} set {set_name} {w} done",
                      flush=True)

    report = {"run_seconds": seconds, "runs_per_set": runs,
              "seeds": [1] if fixed else list(range(1, runs + 1)),
              "host": host, "workloads": {}}
    ok = True
    for w in workloads:
        rows = {}
        for m, decl in metrics.items():
            a = summarize(values["A"][w][m])
            b = summarize(values["B"][w][m])
            sign = 1.0 if decl["better"] == "lower" else -1.0
            drift = (sign * (b["median"] - a["median"]) / a["median"]
                     if a["median"] else 0.0)
            bound = decl["bound"]
            spread = max(a["spread"], b["spread"])
            if bound < EXACT:
                passed = len(set(a["values"] + b["values"])) == 1
                steady = passed
            else:
                passed = drift <= bound and (m == "setup_s" or spread <= bound)
                steady = spread < bound / 3
            ok = ok and passed
            rows[m] = {"bound": bound, "set_a": a, "set_b": b, "drift": drift,
                       "pass": passed, "steady": steady}
            print(f"{w:14s} {m:22s} median {a['median']:.6g} "
                  f"spread A {a['spread']:.4f} B {b['spread']:.4f} "
                  f"drift {drift:+.4f} bound {bound} "
                  f"{'ok' if passed else 'FAIL'}"
                  f"{'' if steady else ' (not steady)'}")
        report["workloads"][w] = rows
    return report, ok


def per_layer_study(bench, runs):
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    report = {"run_seconds": seconds, "runs": runs, "seed": 1,
              "workloads": {}}
    for w in workloads:
        samples = []
        for i in range(runs):
            result, info = run(w, 1, seconds, 1)
            samples.append((result, info))
            print(f"run {i + 1} {w} done", flush=True)
        row = {"median": {}, "clients_trained": samples[-1][1].get(
            "clients_trained")}
        for m in bench["per_layer"]:
            row["median"][m["name"]] = statistics.median(
                r["metrics"][m["name"]]["value"] for r, _ in samples)
        report["workloads"][w] = row
        report["host"] = samples[-1][1]["host"]
    return report, True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("study", choices=["seeds", "fixed_seed", "per_layer"])
    ap.add_argument("--runs", type=int,
                    help="runs per set (seeds: 10, fixed_seed: 5), "
                         "or per workload (per_layer: 3)")
    ap.add_argument("--out", default="bench_e2e/noise.json")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    if args.study == "per_layer":
        report, ok = per_layer_study(bench, args.runs or 3)
    else:
        fixed = args.study == "fixed_seed"
        report, ok = set_study(bench, args.runs or (5 if fixed else 10), fixed)

    doc = {}
    if os.path.exists(args.out):
        with open(args.out) as f:
            doc = json.load(f)
    doc[args.study] = report
    with open(args.out, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
