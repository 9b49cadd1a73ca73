"""PROFILE — the sampling profiler's overhead gate on the fast-path benchmark.

The profiler (:mod:`repro.obs.profile`) promises the same deal the tracer
made: *near-free when disarmed* and cheap when armed.  An armed SIGPROF
sampler at the default 100 Hz interrupts the interpreter ~100×/s of CPU
time, so its tax is bounded but real; a disarmed ``PROFILER.maybe(False)``
must reduce to returning a shared null object.  Two properties are
asserted on the same largest-WAN-grid scenario the FASTPATH and OBS
benchmarks gate:

* armed at **100 Hz**, the end-to-end pipeline slows down by less than
  **10%** against the unprofiled run — and the captured stacks are real
  (non-empty, containing a pipeline/mapper frame);
* **disarmed**, one ``PROFILER.maybe(False)`` entry/exit costs well under
  a microsecond, so per-job arming checks are free for unprofiled jobs.
"""

from __future__ import annotations

import time

from repro.obs.profile import PROFILER
from repro.pipeline import run_pipeline
from repro.scenarios import get_scenario

from test_bench_fastpath import LARGEST_WAN_GRID

MAX_PROFILED_OVERHEAD_PCT = 10.0
#: Near-free: a disarmed maybe() returns a shared null profile object.
MAX_DISARMED_NS = 2_000
PROFILE_HZ = 100
ROUNDS = 7


def _one_round(scenario, profiled: bool):
    """(wall seconds, collapsed stacks) of one run on a fresh platform."""
    platform = scenario.build()
    start = time.perf_counter()
    with PROFILER.maybe(profiled, hz=PROFILE_HZ) as capture:
        run_pipeline(platform)
    return time.perf_counter() - start, capture.stacks


def test_bench_profiling_overhead_at_100hz():
    scenario = get_scenario(LARGEST_WAN_GRID)
    PROFILER.reset()
    # Interleave the two modes so machine-load drift across the
    # measurement hits both equally, and compare the best rounds.
    plain_s = profiled_s = float("inf")
    stacks = {}
    _one_round(scenario, profiled=False)            # warm-up, untimed
    for _ in range(ROUNDS):
        round_plain, _ = _one_round(scenario, profiled=False)
        plain_s = min(plain_s, round_plain)
        round_profiled, round_stacks = _one_round(scenario, profiled=True)
        profiled_s = min(profiled_s, round_profiled)
        stacks.update(round_stacks)
    overhead_pct = (profiled_s / plain_s - 1.0) * 100.0
    samples = sum(stacks.values())
    print(f"\n[PROFILE] {scenario.name}: plain {plain_s:.3f}s, "
          f"profiled@{PROFILE_HZ}Hz {profiled_s:.3f}s -> "
          f"{overhead_pct:+.2f}% ({samples} samples, "
          f"{len(stacks)} distinct stacks)")
    assert overhead_pct < MAX_PROFILED_OVERHEAD_PCT, (
        f"sampling at {PROFILE_HZ} Hz costs {overhead_pct:.2f}% on "
        f"{scenario.name} (budget: {MAX_PROFILED_OVERHEAD_PCT}%)")
    # The profile is real: samples were taken and they caught the pipeline.
    assert samples > 0
    assert any("repro.pipeline" in frame or "repro.env" in frame
               for stack in stacks for frame in stack), (
        "no pipeline/mapper frame in any sampled stack")


def test_bench_disarmed_profiler_is_near_free():
    PROFILER.reset()
    calls = 200_000
    start = time.perf_counter()
    for _ in range(calls):
        with PROFILER.maybe(False):
            pass
    per_call_ns = (time.perf_counter() - start) / calls * 1e9
    print(f"\n[PROFILE] disarmed maybe(): {per_call_ns:.0f} ns/call "
          f"({calls} calls)")
    assert PROFILER.samples() == 0       # nothing sampled
    assert not PROFILER.armed
    assert per_call_ns < MAX_DISARMED_NS, (
        f"a disarmed maybe() costs {per_call_ns:.0f} ns "
        f"(budget: {MAX_DISARMED_NS} ns)")
