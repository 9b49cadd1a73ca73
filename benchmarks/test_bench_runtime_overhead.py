"""RUNTIME — the runtime hooks' overhead gate on the fast-path benchmark.

Serve installs :mod:`repro.obs.runtime`'s GC watch for the whole life of
the process, so its cost is a permanent tax on everything the process
does.  The process gauges themselves cost nothing between reads: they are
callbacks evaluated by a scrape or a metrics-history snapshot, and no
sampler thread runs.  Two properties are asserted on the same
largest-WAN-grid scenario the FASTPATH benchmark gates:

* the GC watch taxes the pipeline by less than **2%** — asserted on its
  actual cost (the synchronous callback pair each collection pays, times
  the collections a pipeline round triggers), because on shared CI
  machines an end-to-end A/B wall-clock delta is dominated by
  multi-percent load drift that no bracketing fully cancels;
* **disabled**, the flight recorder's ``maybe_dump`` trigger — called on
  every breaker transition and persist fallback — costs well under a
  microsecond, so instrumenting those paths is free until a
  ``--flight-dir`` arms it.
"""

from __future__ import annotations

import gc
import time

from repro.obs.flightrec import FlightRecorder
from repro.obs.runtime import _GCWatch
from repro.pipeline import run_pipeline
from repro.scenarios import get_scenario

from test_bench_fastpath import LARGEST_WAN_GRID

MAX_GC_WATCH_OVERHEAD_PCT = 2.0
#: Near-free: a disabled maybe_dump() reduces to one attribute check.
MAX_DISABLED_TRIGGER_NS = 2_000
ROUNDS = 5


def _one_round(scenario) -> float:
    """Wall time of one pipeline run on a fresh platform."""
    platform = scenario.build()
    start = time.perf_counter()
    run_pipeline(platform)
    return time.perf_counter() - start


def test_bench_gc_watch_overhead():
    scenario = get_scenario(LARGEST_WAN_GRID)

    # The GC watch taxes a pipeline round in exactly one way: the
    # callbacks every collection runs synchronously.  The pair cost and
    # the collection count are measured directly and their product gated;
    # it sits near 0.1% so even a several-fold noise spike stays inside
    # the 2% budget, while a real regression (an expensive callback)
    # blows through it.

    # Pipeline round: wall time and GC collections triggered.
    _one_round(scenario)                        # warm-up, untimed
    round_s = float("inf")
    collections = 0
    for _ in range(ROUNDS):
        before = [s["collections"] for s in gc.get_stats()]
        elapsed = _one_round(scenario)
        after = [s["collections"] for s in gc.get_stats()]
        if elapsed < round_s:
            round_s = elapsed
            collections = sum(a - b for a, b in zip(after, before))

    # One GC callback pair (start + stop), as paid on every collection.
    watch = _GCWatch()                          # fresh: keeps REGISTRY clean
    pairs = 10_000
    info = {"generation": 0, "collected": 0, "uncollectable": 0}
    pair_cost_s = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        for _ in range(pairs):
            watch._callback("start", info)
            watch._callback("stop", info)
        pair_cost_s = min(pair_cost_s,
                          (time.perf_counter() - start) / pairs)

    overhead_pct = 100.0 * collections * pair_cost_s / round_s
    print(f"\n[RUNTIME] {scenario.name}: round {round_s:.3f}s, "
          f"{collections} GC collections x {pair_cost_s * 1e9:.0f} ns "
          f"callback pair -> {overhead_pct:+.3f}%")
    assert overhead_pct < MAX_GC_WATCH_OVERHEAD_PCT, (
        f"the GC watch costs {overhead_pct:.3f}% on {scenario.name} "
        f"(budget: {MAX_GC_WATCH_OVERHEAD_PCT}%)")


def test_bench_disabled_flight_trigger_is_near_free():
    recorder = FlightRecorder()                 # no flight_dir: disabled
    calls = 200_000
    start = time.perf_counter()
    for _ in range(calls):
        recorder.maybe_dump("breaker-open")
    per_call_ns = (time.perf_counter() - start) / calls * 1e9
    print(f"\n[RUNTIME] disabled maybe_dump(): {per_call_ns:.0f} ns/call "
          f"({calls} calls)")
    assert per_call_ns < MAX_DISABLED_TRIGGER_NS, (
        f"a disabled maybe_dump() call costs {per_call_ns:.0f} ns "
        f"(budget: {MAX_DISABLED_TRIGGER_NS} ns)")
