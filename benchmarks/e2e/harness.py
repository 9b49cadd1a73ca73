"""Shared plumbing of the end-to-end benchmark.

Everything the four workload modules need besides the program itself:
where the checkout and its sources are, a scratch directory inside the
checkout, percentiles, the blocks a measured phase is cut into and the rule
that picks its steady ones, peak-RSS readings, the run-environment record,
the folding of ``bench.*`` spans into per-layer self times, and the tally of
attempted and failed operations.

The metric catalogue (names, units, directions, bounds) lives in the
checkout's ``BENCHMARK.json``; :func:`load_spec` reads it so the emitted
metric set can be checked against the declared one.
"""

from __future__ import annotations

import json
import os
import platform as pyplatform
import resource
import shutil
import subprocess
import sys
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import (Callable, Dict, Iterable, Iterator, List, Optional,
                    Sequence)

HERE = os.path.dirname(os.path.abspath(__file__))
#: The checkout root: ``benchmarks/e2e`` sits two levels below it.
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
#: Scratch state of every run lives below this directory (ignored by git)
#: and is removed when the run ends.
WORK_ROOT = os.path.join(ROOT, ".bench_work")

#: Exit status for "the program under test is not in this checkout".
EXIT_NO_PROGRAM = 3


class MissingProgram(RuntimeError):
    """The checkout holds the benchmark but not the program it measures."""


def use_program_sources() -> None:
    """Make ``import repro`` resolve to this checkout's ``src/`` tree."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise MissingProgram(f"no program sources under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def load_spec() -> Dict[str, object]:
    with open(SPEC_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


def program_env() -> Dict[str, str]:
    """Environment for child processes running the program."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env.pop("REPRO_IMPORTS", None)
    env.pop("REPRO_FAULT_PLAN", None)
    return env


@contextmanager
def work_dir(tag: str) -> Iterator[str]:
    """A fresh scratch directory inside the checkout, removed afterwards."""
    os.makedirs(WORK_ROOT, exist_ok=True)
    path = tempfile.mkdtemp(prefix=f"{tag}-", dir=WORK_ROOT)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass                      # another run still uses it


# -- statistics ---------------------------------------------------------------

def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-quantile (0..1), linearly interpolated; 0.0 when empty."""
    from repro.obs.analyze import percentile as sorted_percentile
    return sorted_percentile(sorted(values), q)


def median(values: Sequence[float]) -> float:
    return percentile(values, 0.5)


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


#: Samples a tail percentile must leave beyond it.
TAIL_BEYOND = 10


@dataclass
class Block:
    """A stretch of the measured phase that does the same work as the
    others: its wall time and the latency of each operation in it."""

    seconds: float
    latencies: List[float] = field(default_factory=list)


def steady_blocks(blocks: Sequence[Block], key: Callable[[Block], float]
                  ) -> List[Block]:
    """The least-disturbed third of a run's blocks, ranked by ``key``.

    Where CPUs are shared, a neighbour slows every process for seconds at a
    time (on a 2-vCPU KVM guest, a fixed pure-Python loop timed for five
    minutes ran 1.4-1.6x slower in ~12 % of its seconds, in stretches of
    4-13 s).  A median over the whole run moves with the share of the run
    that was disturbed; the fastest third of equal blocks does not while
    that share stays under two thirds.  A cost that recurs less often than
    once per block can hide in the discarded blocks, so every block holds
    each recurring part of the workload once.
    """
    ranked = sorted(blocks, key=key)
    return ranked[:max(1, round(len(ranked) / 3))]


def latency_metrics(latencies_s: Sequence[float]) -> Dict[str, object]:
    """Median and the highest percentile with ``TAIL_BEYOND`` samples beyond
    it (both in ms), with the sample count behind them.  Below twice that
    many samples no percentile above the median qualifies, and the tail is
    the maximum."""
    n = len(latencies_s)
    tail_q = 1.0 - TAIL_BEYOND / n if n >= 2 * TAIL_BEYOND else 1.0
    return {"n": n, "p50_ms": median(latencies_s) * 1e3, "tail_q": tail_q,
            "tail_ms": percentile(latencies_s, tail_q) * 1e3}


def closed_loop_metrics(blocks: Sequence[Block], ops_per_block: int = 0
                        ) -> Dict[str, object]:
    """Throughput and latency over the steady third of a closed loop's
    blocks, ranked by wall time (every block does the same work).

    Throughput counts ``ops_per_block`` per block, or else its latencies.
    """
    kept = steady_blocks(blocks, key=lambda block: block.seconds)
    latencies = [value for block in kept for value in block.latencies]
    summary = latency_metrics(latencies)
    ops = ops_per_block * len(kept) if ops_per_block else len(latencies)
    summary["per_s"] = ops / sum(block.seconds for block in kept)
    summary["blocks"] = f"{len(kept)}/{len(blocks)}"
    return summary


# -- resources and environment -------------------------------------------------

def peak_rss_mb(children: bool = False) -> float:
    """Peak resident set size of this process, or of its largest reaped
    descendant (``children=True``), in MB."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def _git_commit() -> str:
    env = dict(os.environ)
    # Never let git walk above the checkout into an unrelated repository.
    env["GIT_CEILING_DIRECTORIES"] = os.path.dirname(ROOT)
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10,
                             env=env)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_environment(seed: int) -> Dict[str, object]:
    """What the numbers of one run depend on besides the code."""
    from repro.sweep import code_version
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "git_commit": _git_commit(),
        "code_version": code_version(),
        "python": pyplatform.python_version(),
    }


# -- tracing ---------------------------------------------------------------------

BENCH_PREFIX = "bench."


def layer_self_times(spans: Iterable[Dict[str, object]]) -> Dict[str, float]:
    """Self time per ``bench.*`` span name, program spans folded in.

    Spans the program records on its own (``env.refine``,
    ``replay.epoch``, ...) are not layers of this benchmark: each one is
    dropped and its time stays with the nearest enclosing ``bench.*`` span,
    so a bench span's self time is the time spent in the layer it wraps
    minus the bench spans nested inside it.
    """
    from repro.obs.analyze import self_times

    spans = list(spans)
    by_id = {str(s.get("span_id")): s for s in spans}

    def bench_parent(span: Dict[str, object]) -> Optional[str]:
        seen = set()
        parent = span.get("parent_id")
        while parent and str(parent) in by_id and parent not in seen:
            seen.add(parent)
            node = by_id[str(parent)]
            if str(node.get("name", "")).startswith(BENCH_PREFIX):
                return str(parent)
            parent = node.get("parent_id")
        return None

    folded = [dict(span, parent_id=bench_parent(span)) for span in spans
              if str(span.get("name", "")).startswith(BENCH_PREFIX)]
    selfs = self_times(folded)
    totals: Dict[str, float] = {}
    for span in folded:
        name = str(span["name"])
        totals[name] = totals.get(name, 0.0) + selfs[str(span["span_id"])]
    return totals


def durations_by(spans: Iterable[Dict[str, object]], name: str,
                 attr: Optional[str] = None) -> Dict[object, List[float]]:
    """Durations of every span called ``name``, grouped by one attribute."""
    groups: Dict[object, List[float]] = {}
    for span in spans:
        if span.get("name") != name:
            continue
        attrs = span.get("attrs") or {}
        key = attrs.get(attr) if attr else None
        groups.setdefault(key, []).append(float(span.get("duration_s", 0.0)))
    return groups


def counter_deltas(before: Dict[str, int], after: Dict[str, int]
                   ) -> Dict[str, int]:
    return {key: after[key] - before.get(key, 0) for key in after}


# -- outcome -----------------------------------------------------------------------

class Tally:
    """Operations attempted and failed, with the first failure messages."""

    KEEP = 20

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < self.KEEP:
            self.failures.append(message)

    def check(self, condition: bool, message: str) -> bool:
        if not condition:
            self.fail(message)
        return condition


def result_line(tally: Tally, metrics: Dict[str, float],
                units: Dict[str, str]) -> str:
    """The JSON object the run's last stdout line carries."""
    if tally.attempted < 1:
        tally.fail("the run completed no operation")
        tally.attempted = 1
    return json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]}
                    for name in sorted(units)},
    })
