#!/usr/bin/env python
"""Gate CI on the tracked end-to-end benchmark's perf trajectory.

Compares the ``BENCH_results.json`` written by ``make bench`` against the
committed baseline (``benchmarks/BENCH_baseline.json``) and exits non-zero
when the tracked benchmark regressed by more than the tolerance (default
25 %).  Two metrics are checked:

* ``counters`` — deterministic hot-path work (simulation events, max-min
  allocations, aggregation path searches); any growth beyond the tolerance
  is a real regression and always fails.
* ``wall_s`` — wall-clock time; inherently machine-dependent, so the check
  can be skipped with ``--no-wall`` (or widened via ``--tolerance``) on
  hardware that is not comparable to the baseline machine.

Refresh the baseline after an intentional perf change::

    make bench
    python benchmarks/check_bench_regression.py --update
"""

from __future__ import annotations

import argparse
import json
import os
import sys

BASELINE_PATH = os.path.join(os.path.dirname(__file__), "BENCH_baseline.json")
RESULTS_PATH = "BENCH_results.json"
#: The end-to-end benchmark whose trajectory gates CI.
TRACKED = ("benchmarks/test_bench_fastpath.py::"
           "test_bench_fastpath_speedup_on_largest_wan_grid")
#: Counters that measure deterministic work (others, like cache hits, are
#: diagnostics rather than cost).
WORK_COUNTERS = ("events", "allocations", "path_searches")


def _load(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _tracked_result(payload: dict, benchmark: str) -> dict:
    for result in payload.get("results", []):
        if result["benchmark"] == benchmark:
            return result
    raise SystemExit(f"tracked benchmark {benchmark!r} missing from results")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--results", default=RESULTS_PATH,
                        help=f"BENCH results file (default: {RESULTS_PATH})")
    parser.add_argument("--baseline", default=BASELINE_PATH,
                        help="committed baseline file")
    parser.add_argument("--benchmark", default=TRACKED,
                        help="node id of the tracked benchmark")
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="allowed relative regression (default: 0.25)")
    parser.add_argument("--no-wall", action="store_true",
                        help="skip the machine-dependent wall-clock check")
    parser.add_argument("--update", action="store_true",
                        help="rewrite the baseline from the current results")
    args = parser.parse_args(argv)

    results = _load(args.results)
    current = _tracked_result(results, args.benchmark)

    if args.update:
        baseline = {
            "schema": results.get("schema", 1),
            "benchmark": args.benchmark,
            "wall_s": current["wall_s"],
            "counters": {key: current["counters"][key]
                         for key in WORK_COUNTERS
                         if key in current["counters"]},
            "code_version": results.get("code_version", ""),
        }
        with open(args.baseline, "w", encoding="utf-8") as handle:
            json.dump(baseline, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"baseline updated: {args.baseline}")
        return 0

    baseline = _load(args.baseline)
    # A missing key means the file predates versioning: treat as schema 1.
    results_schema = results.get("schema", 1)
    baseline_schema = baseline.get("schema", 1)
    if results_schema != baseline_schema:
        raise SystemExit(
            f"schema mismatch: results are schema {results_schema} but the "
            f"committed baseline is schema {baseline_schema} — the result "
            f"format changed and comparing across versions would be "
            f"meaningless; refresh the baseline with:\n"
            f"    make bench && python benchmarks/check_bench_regression.py "
            f"--update")
    if baseline["benchmark"] != args.benchmark:
        raise SystemExit("baseline tracks a different benchmark; "
                         "re-run with --update")

    failures = []
    for key in WORK_COUNTERS:
        before = baseline["counters"].get(key, 0)
        after = current["counters"].get(key, 0)
        # A zero baseline means the tracked benchmark does no such work at
        # all; allow only a small absolute amount to appear before failing,
        # otherwise a 0 -> millions regression would pass a relative check.
        limit = before * (1.0 + args.tolerance) if before else 1000
        status = "ok" if after <= limit else "REGRESSED"
        print(f"{key:13s} baseline {before:>12d}  current {after:>12d}  "
              f"{status}")
        if status != "ok":
            failures.append(key)
    if not args.no_wall:
        before_s = baseline["wall_s"]
        after_s = current["wall_s"]
        limit = before_s * (1.0 + args.tolerance)
        status = "ok" if after_s <= limit else "REGRESSED"
        print(f"{'wall_s':13s} baseline {before_s:>12.4f}  "
              f"current {after_s:>12.4f}  {status}")
        if status != "ok":
            failures.append("wall_s")
    if failures:
        print(f"perf regression (> {args.tolerance:.0%}) in: "
              f"{', '.join(failures)}", file=sys.stderr)
        return 1
    print("no perf regression")
    return 0


if __name__ == "__main__":
    sys.exit(main())
