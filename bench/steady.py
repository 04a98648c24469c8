#!/usr/bin/env python3
"""Steadiness check: run each workload repeatedly and compare the spread of
every end-to-end metric with its bound in BENCHMARK.json.

    python3 bench/steady.py

Every workload of BENCHMARK.json is run RUNS times in each of SETS sets,
for its `run_seconds`, with seeds 1 to RUNS in every set. For each metric
it prints the median, the quartiles (`statistics.quantiles(values, n=4)`),
the spread (q3 - q1) / median, and the bound; a spread above the bound
fails the check, and one above a third of the bound is flagged. It also
prints how far the second set's median moved from the first, in the worse
direction, which fails the check beyond the bound. Each run's share of
failed operations must be the same. After the untraced runs it makes one
traced run per workload, at seed 1, and prints the tracing overhead: traced
against untraced `ops_per_s`.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10
SETS = 2


def run_once(workload, seed, seconds, trace):
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload]
    argv += ["--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    result["raw"] = {}
    for line in lines:
        if line.startswith("traced ops_per_s "):
            result["traced_ops_per_s"] = float(line.split()[2])
        if line.startswith("raw "):
            result["raw"][line.split()[1]] = float(line.split()[2])
    return result


def worse(first, second, better):
    """How much worse the second median is, as a share of the first."""
    change = (second - first) / first
    return change if better == "lower" else -change


def main():
    argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter).parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]

    results = {(s, w): [] for s in range(SETS) for w in workloads}
    for s in range(SETS):
        for i in range(RUNS):
            for w in workloads:
                results[s, w].append(run_once(w, 1 + i, seconds, 0))
                print(f"set {s + 1} run {i + 1}/{RUNS} {w} done", file=sys.stderr, flush=True)

    steady = True
    for w in workloads:
        print(f"\n{w}")
        runs = [r for s in range(SETS) for r in results[s, w]]
        shares = {Fraction(r["failed"], r["attempted"]) for r in runs}
        correct = all(r["correct"] for r in runs)
        print(f"  correct in every run: {correct}; failed share: {sorted(str(x) for x in shares)}")
        steady &= correct and len(shares) == 1
        medians = {}
        for s in range(SETS):
            for m in metrics:
                values = [r["metrics"][m["name"]]["value"] for r in results[s, w]]
                q1, med, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / med
                flag = "" if spread <= m["bound"] / 3 else "  <-- above bound/3"
                steady &= spread <= m["bound"]
                medians[s, m["name"]] = med
                raw = [r["raw"][m["name"]] for r in results[s, w]]
                rq1, rmed, rq3 = statistics.quantiles(raw, n=4)
                print(
                    f"  set {s + 1} {m['name']:<12} median {med:12.4f} {m['unit']:<4} "
                    f"q1 {q1:12.4f} q3 {q3:12.4f} spread {spread:6.3f} bound {m['bound']}{flag}"
                    f"  (unscaled: median {rmed:.4f} spread {(rq3 - rq1) / rmed:.3f})"
                )
        for s in range(1, SETS):
            for m in metrics:
                drift = worse(medians[0, m["name"]], medians[s, m["name"]], m["better"])
                steady &= drift <= m["bound"]
                print(f"  set {s + 1} vs set 1 {m['name']:<12} worse by {drift:+.3f} (bound {m['bound']})")

    print("\ntracing overhead (one traced run per workload, seed 1)")
    for w in workloads:
        traced = run_once(w, 1, seconds, 1)["traced_ops_per_s"]
        base = statistics.median(r["metrics"]["ops_per_s"]["value"] for r in results[0, w])
        print(
            f"  {w:<11} traced {traced:10.3f} 1/s, untraced median {base:10.3f} 1/s "
            f"over {RUNS} runs: traced/untraced {traced / base:.3f}"
        )
    print("\nsteady" if steady else "\nNOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
