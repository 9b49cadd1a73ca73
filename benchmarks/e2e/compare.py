#!/usr/bin/env python3
"""Compare two sets of benchmark runs, workload by workload.

    python3 benchmarks/e2e/compare.py A/ B/

``A/`` (the parent) and ``B/`` (the change) hold the ``--out`` files of
untraced runs (``run.py --out A/<workload>-<seed>.json``); a serve-mixed
run whose load generator fell behind is invalid and skipped.  For every
workload and end-to-end metric it prints each side's median and quartiles,
the change of the median and the metric's bound from ``BENCHMARK.json``,
then a verdict:

* ``unresolved`` -- either side's spread (quartile distance over median) is
  wider than the bound, unless every B run beats every A run (``better``);
* ``worse``      -- B's median is worse than A's by more than the bound;
* ``better``     -- B wins at least nine tenths of the runs paired by seed
  (ties count for neither) and the medians differ by more than A's
  quartile distance;
* ``same``       -- anything else.

Exits 1 when any row is ``worse``.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import sys
from typing import Dict, List, Tuple

import harness

Runs = Dict[Tuple[str, str], Dict[int, float]]


def load_runs(directory: str) -> Runs:
    """(workload, metric) -> {seed: value} over the valid untraced runs."""
    runs: Runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path, "r", encoding="utf-8") as handle:
            run = json.load(handle)
        if run.get("trace") or run.get("smoke"):
            continue
        if run["details"].get("generator_valid") is False:
            print(f"skipped {path}: the load generator fell behind",
                  file=sys.stderr)
            continue
        for name, metric in run["result"]["metrics"].items():
            runs.setdefault((run["workload"], name), {})[run["seed"]] = \
                metric["value"]
    return runs


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(a: Dict[int, float], b: Dict[int, float], better: str,
            bound: float) -> str:
    sign = -1.0 if better == "lower" else 1.0

    def gain(new: float, old: float) -> float:
        return sign * (new - old)

    qa, qb = quartiles(list(a.values())), quartiles(list(b.values()))
    spread = max((q[2] - q[0]) / abs(q[1]) if q[1] else 0.0
                 for q in (qa, qb))
    if spread > bound:
        if min(gain(y, x) for x in a.values() for y in b.values()) > 0:
            return "better"
        return "unresolved"
    if gain(qb[1], qa[1]) < -bound * abs(qa[1]):
        return "worse"
    seeds = sorted(set(a) & set(b))
    pairs = ([(a[s], b[s]) for s in seeds] if seeds else
             list(zip(sorted(a.values()), sorted(b.values()))))
    wins = sum(1 for x, y in pairs if gain(y, x) > 0)
    if pairs and wins >= 0.9 * len(pairs) and \
            abs(qb[1] - qa[1]) > qa[2] - qa[0]:
        return "better"
    return "same"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", metavar="A/")
    parser.add_argument("change", metavar="B/")
    args = parser.parse_args(argv)
    spec = harness.load_spec()
    a_runs, b_runs = load_runs(args.parent), load_runs(args.change)
    workloads = [w["name"] for w in spec["workloads"]]
    header = (f"{'workload':13} {'metric':17} {'A median [q1, q3]':>30} "
              f"{'B median [q1, q3]':>30} {'delta':>8} {'bound':>6}  verdict")
    print(header)
    print("-" * len(header))
    worse = 0
    for workload in workloads:
        for metric in spec["end_to_end"]:
            key = (workload, metric["name"])
            if key not in a_runs or key not in b_runs:
                print(f"{workload:13} {metric['name']:17} (no runs on one "
                      "side)")
                continue
            a, b = a_runs[key], b_runs[key]
            qa, qb = quartiles(list(a.values())), quartiles(list(b.values()))
            delta = (qb[1] - qa[1]) / qa[1] if qa[1] else 0.0
            outcome = verdict(a, b, metric["better"], metric["bound"])
            worse += outcome == "worse"
            print(f"{workload:13} {metric['name']:17} "
                  f"{qa[1]:10.4g} [{qa[0]:8.4g}, {qa[2]:8.4g}] "
                  f"{qb[1]:10.4g} [{qb[0]:8.4g}, {qb[2]:8.4g}] "
                  f"{delta:+8.1%} {metric['bound']:6.0%}  {outcome}"
                  f"  (n={len(a)}/{len(b)} {metric['unit']})")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
