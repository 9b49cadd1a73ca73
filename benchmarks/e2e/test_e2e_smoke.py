"""Smoke test of the end-to-end benchmark: every workload at toy size.

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e_smoke.py -q

Each workload runs untraced and traced (``--smoke --seconds 1``).  The
untraced run must emit every end-to-end metric of ``BENCHMARK.json`` with
its unit, the traced run every per-layer metric, and both must pass their
own correctness checks.  The traced run must also measure the layers the
workload is meant to exercise.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import compare  # noqa: E402
import harness  # noqa: E402

RUN = os.path.join(HERE, "run.py")
SPEC = harness.load_spec()

#: Per-layer metrics each workload's traced run must find non-zero.
LAYERS = {
    "sweep-ladder": ("netsim.build_s", "netsim.allocations", "env.map_s",
                     "env.measurements", "core.plan_s",
                     "core.check_constraints_s", "core.harmful_collisions_s",
                     "core.completeness_s", "core.collision_scan_s",
                     "core.collision_pairs_compared", "dynamics.replay_s",
                     "sweep.busy_ratio", "sweep.task_bytes",
                     "bench.trace_overhead_ratio",
                     "bench.layer_coverage_ratio"),
    "nws-query": ("netsim.build_s", "simkernel.events", "simkernel.run_s",
                  "env.map_s", "core.plan_s", "nws.query_direct_ms_p50",
                  "nws.query_aggregated_ms_p50", "nws.answered_ratio",
                  "nws.series_points", "nws.experiments",
                  "bench.trace_overhead_ratio"),
    "nws-live": ("simkernel.events", "simkernel.run_s",
                 "nws.query_aggregated_ms_p50", "nws.series_points",
                 "nws.experiments", "bench.layer_coverage_ratio"),
    "serve-mixed": ("serve.handle_results_ms_p50",
                    "serve.handle_latest_ms_p50",
                    "serve.handle_scenarios_ms_p50", "serve.lru_hit_ratio",
                    "serve.store_records_parsed", "serve.job_s",
                    "sweep.task_bytes", "bench.trace_overhead_ratio"),
}


def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=120, cwd=harness.ROOT)
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", sorted(LAYERS))
def test_workload_emits_every_declared_metric(workload, trace):
    result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    values = {name: m["value"] for name, m in result["metrics"].items()}
    if trace:
        assert [name for name in LAYERS[workload] if not values[name]] == []
    else:
        assert all(value > 0 for value in values.values()), values


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(harness.SPEC_PATH, tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "nws-query",
         "--seed", "1"], capture_output=True, text=True, timeout=60,
        cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


@pytest.mark.parametrize("a, b, better, expected", [
    ({1: 10.0, 2: 10.1, 3: 9.9}, {1: 12.0, 2: 12.1, 3: 11.9}, "lower",
     "worse"),
    ({1: 10.0, 2: 10.1, 3: 9.9}, {1: 9.0, 2: 9.1, 3: 8.9}, "lower",
     "better"),
    ({1: 10.0, 2: 10.1, 3: 9.9}, {1: 10.05, 2: 10.0, 3: 9.95}, "lower",
     "same"),
    ({1: 10.0, 2: 14.0, 3: 6.0, 4: 12.0}, {1: 10.0, 2: 10.2, 3: 9.8, 4: 10.1},
     "higher", "unresolved"),
])
def test_compare_verdicts(a, b, better, expected):
    assert compare.verdict(a, b, better, bound=0.1) == expected
