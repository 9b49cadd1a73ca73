"""FASTPATH — the hot-path overhaul's speedup and equivalence gate.

The fast path (incremental max-min reallocation, probe memoisation,
constraint-key caching, collision-scan hoisting) must make the
end-to-end simulate → map → plan → quality pipeline at least **3× faster**
on the largest WAN-grid catalog scenario — *without changing any result*.
Both properties are asserted here: the speedup on identical inputs, and
bit-identical ENV trees, plans and quality scores across the **whole**
catalog (static and dynamic) with the fast path on vs. off.

``repro.perf.fast_path(False)`` routes every layer through the reference
implementations (global recompute per flow event, no memo, per-comparison
route re-resolution), which is what the pre-overhaul code did.
"""

from __future__ import annotations

import time

from repro import perf
from repro.analysis import render_env_tree, render_plan, render_table
from repro.core import render_config
from repro.dynamics import DynamicScenario, run_replay
from repro.pipeline import run_pipeline
from repro.scenarios import get_scenario, list_scenarios

#: The largest WAN-grid scenario in the catalog (see repro.scenarios.catalog).
LARGEST_WAN_GRID = "wan-grid-3x2"
REQUIRED_SPEEDUP = 3.0


def _pipeline_digest(result):
    """Everything the acceptance criteria require to be bit-identical."""
    return {
        "tree": render_env_tree(result.view.root),
        "plan": render_plan(result.plan),
        "config": render_config(result.plan),
        "quality": [r.as_row() for r in result.reports],
    }


def _replay_digest(result):
    return [
        {"epoch": r.epoch, "remap_mode": r.remap_mode,
         "plan_cliques": r.plan_cliques, "stability": r.plan_stability,
         "completeness": r.completeness,
         "bandwidth_error": r.bandwidth_error,
         "harmful_collisions": r.harmful_collisions}
        for r in result.records
    ]


def _timed_pipeline(scenario, enabled: bool, rounds: int = 3):
    """Best-of-``rounds`` pipeline wall time on a fresh platform each round."""
    best = float("inf")
    result = None
    for _ in range(rounds):
        platform = scenario.build()
        with perf.fast_path(enabled):
            start = time.perf_counter()
            result = run_pipeline(platform)
            best = min(best, time.perf_counter() - start)
    return best, result


def test_bench_fastpath_speedup_on_largest_wan_grid():
    scenario = get_scenario(LARGEST_WAN_GRID)
    baseline_s, baseline = _timed_pipeline(scenario, enabled=False)
    fast_s, fast = _timed_pipeline(scenario, enabled=True)
    speedup = baseline_s / fast_s
    print(f"\n[FASTPATH] {scenario.name}: baseline {baseline_s:.3f}s, "
          f"fast {fast_s:.3f}s -> {speedup:.2f}x")
    assert _pipeline_digest(baseline) == _pipeline_digest(fast)
    assert speedup >= REQUIRED_SPEEDUP, (
        f"fast path is only {speedup:.2f}x faster on {scenario.name} "
        f"(required: {REQUIRED_SPEEDUP}x)")


def test_bench_fastpath_results_identical_across_catalog():
    rows = []
    for scenario in list_scenarios():
        if isinstance(scenario, DynamicScenario):
            with perf.fast_path(False):
                reference = _replay_digest(run_replay(scenario))
            with perf.fast_path(True):
                fast = _replay_digest(run_replay(scenario))
            kind = "dynamic"
        else:
            with perf.fast_path(False):
                reference = _pipeline_digest(run_pipeline(scenario.build()))
            with perf.fast_path(True):
                fast = _pipeline_digest(run_pipeline(scenario.build()))
            kind = "static"
        identical = reference == fast
        rows.append({"scenario": scenario.name, "kind": kind,
                     "identical": identical})
        assert identical, (f"fast path changed the results of "
                           f"{scenario.name}")
    print("\n[FASTPATH] catalog equivalence, fast path on vs. off")
    print(render_table(rows))
    assert len(rows) == len(list_scenarios())
