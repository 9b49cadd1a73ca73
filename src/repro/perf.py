"""Performance plumbing: hot-path work counters and the fast-path switch.

Two small facilities shared by the whole engine:

* the **work counters** — stored ``repro_perf_<name>_total`` counters of
  :data:`~repro.obs.metrics.REGISTRY` (events dispatched, max-min
  allocations solved, probe-memo and route-cache hits/misses).  Hot loops
  bump the raw series with a bare, unlocked ``EVENTS.value += 1.0`` — a
  float, like the stored value, so the add stays on the interpreter's
  fast path.  Pool tasks ship them home in their registry delta.
  The benchmark harness snapshots them around every benchmark
  (:func:`counters_snapshot`) so ``BENCH_results.json`` records a
  machine-independent work trajectory next to wall-clock times.

* the **fast-path switch** — :func:`set_fast_path` / :func:`fast_path`
  globally disable the incremental/memoised code paths (incremental max-min
  reallocation, probe memoisation, constraint-key and steady-state caching)
  so benchmarks can measure an honest before/after on identical inputs.
  Results must be bit-identical in both modes; only the work done differs.
  The switch exists for measurement and equivalence testing — production
  code should never turn it off.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator

from .obs.metrics import REGISTRY

__all__ = ["EVENTS", "ALLOCATIONS", "PROBE_MEMO_HITS", "ROUTE_CACHE_HITS",
           "ROUTE_CACHE_MISSES", "counters_snapshot", "fast_path_enabled",
           "set_fast_path", "fast_path"]

_WORK = {name: REGISTRY.counter(f"repro_perf_{name}_total",
                                f"repro.perf hot-path counter: {name}"
                                ).labels().series
         for name in ("events", "allocations", "probe_memo_hits",
                      "route_cache_hits", "route_cache_misses")}
EVENTS, ALLOCATIONS, PROBE_MEMO_HITS, ROUTE_CACHE_HITS, ROUTE_CACHE_MISSES = \
    _WORK.values()

_FAST_PATH = True


def counters_snapshot() -> Dict[str, int]:
    """The five work counters as plain ints, read atomically."""
    return REGISTRY.counts(_WORK)


def fast_path_enabled() -> bool:
    """Whether the incremental/memoised hot paths are active (default)."""
    return _FAST_PATH


def set_fast_path(enabled: bool) -> None:
    """Globally enable/disable the fast paths (benchmarking hook)."""
    global _FAST_PATH
    _FAST_PATH = bool(enabled)


@contextmanager
def fast_path(enabled: bool) -> Iterator[None]:
    """Context manager scoping a :func:`set_fast_path` change."""
    previous = _FAST_PATH
    set_fast_path(enabled)
    try:
        yield
    finally:
        set_fast_path(previous)
