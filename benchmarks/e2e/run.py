#!/usr/bin/env python3
"""End-to-end benchmark: one named workload per invocation.

    python3 benchmarks/e2e/run.py --workload W --seed S [--seconds N]
                                  [--trace 0|1] [--smoke] [--out F.json]

``--trace 0`` (the default) measures the end-to-end metrics with tracing
off; ``--trace 1`` runs the same workload on the same inputs with the
benchmark's ``bench.<layer>.<call>`` spans recorded and reports the
per-layer metrics instead.  Either way the run checks the program's outputs,
and its last stdout line is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with every metric ``BENCHMARK.json`` declares for the mode, by name with its
unit.  ``--out`` also writes that object together with the run environment
(seed, nproc, load average, git commit, code version) and the workload's
details, for ``compare.py``.  ``--smoke`` runs every workload at toy size.

See README.md next to this file.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
from dataclasses import dataclass

import harness

WORKLOADS = {
    "sweep-ladder": "ladder",
    "nws-query": "nwsload",
    "nws-live": "nwsload",
    "serve-mixed": "servemix",
}


@dataclass(frozen=True)
class Options:
    """What every workload receives: its inputs are derived from ``seed``."""

    workload: str
    seed: int
    seconds: int
    smoke: bool
    work: str


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20,
                        help="length of the measured phase (default: 20)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 reports per-layer metrics from a traced run")
    parser.add_argument("--smoke", action="store_true",
                        help="toy-sized inputs (for the smoke test)")
    parser.add_argument("--out", default=None, metavar="F.json",
                        help="also write the result with its run "
                             "environment and details to this file")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        harness.use_program_sources()
        spec = harness.load_spec()
    except (harness.MissingProgram, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return harness.EXIT_NO_PROGRAM
    section = "per_layer" if args.trace else "end_to_end"
    units = {metric["name"]: metric["unit"] for metric in spec[section]}
    workload = importlib.import_module(WORKLOADS[args.workload])

    tally = harness.Tally()
    with harness.work_dir(args.workload) as work:
        environment = harness.run_environment(args.seed)
        options = Options(workload=args.workload, seed=args.seed,
                          seconds=args.seconds, smoke=args.smoke, work=work)
        measured, details = workload.run(options, tally,
                                         traced=bool(args.trace))
    unknown = sorted(set(measured) - set(units))
    if unknown:
        raise KeyError(f"metrics not declared in BENCHMARK.json: {unknown}")
    # A per-layer metric of a layer this workload never calls reads 0.
    metrics = dict.fromkeys(units, 0.0) if args.trace else {}
    metrics.update(measured)
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise KeyError(f"{args.workload} did not measure {missing}")

    line = harness.result_line(tally, metrics, units)
    for message in tally.failures:
        print(f"FAILED: {message}")
    print(json.dumps({"workload": args.workload, "environment": environment,
                      "details": details}, sort_keys=True, default=str))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "seconds": args.seconds, "trace": args.trace,
                       "smoke": args.smoke, "environment": environment,
                       "result": json.loads(line), "details": details},
                      handle, indent=1, sort_keys=True, default=str)
            handle.write("\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
