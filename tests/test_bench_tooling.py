"""Tests for the perf-trajectory tooling (BENCH_results.json + CI gate)."""

from __future__ import annotations

import importlib.util
import json
import os

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join(REPO_ROOT, "benchmarks", "check_bench_regression.py")


@pytest.fixture()
def regression():
    spec = importlib.util.spec_from_file_location("check_bench_regression",
                                                  SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _write(path, payload):
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)


def _results(tmp_path, wall_s, allocations, events=1000, **counters):
    path = tmp_path / "BENCH_results.json"
    _write(path, {
        "schema": 1,
        "code_version": "abc",
        "results": [
            {"benchmark": "benchmarks/test_x.py::test_other",
             "wall_s": 9.9, "counters": {"events": 5, "allocations": 5}},
            {"benchmark": "benchmarks/test_x.py::test_tracked",
             "wall_s": wall_s,
             "counters": {"events": events, "allocations": allocations,
                          **counters}},
        ],
    })
    return str(path)


def _baseline(tmp_path, wall_s=1.0, allocations=1000, events=1000,
              **counters):
    path = tmp_path / "BENCH_baseline.json"
    _write(path, {
        "benchmark": "benchmarks/test_x.py::test_tracked",
        "wall_s": wall_s,
        "counters": {"events": events, "allocations": allocations,
                     **counters},
    })
    return str(path)


TRACKED = ["--benchmark", "benchmarks/test_x.py::test_tracked"]


class TestRegressionGate:
    def test_passes_within_tolerance(self, regression, tmp_path, capsys):
        code = regression.main(
            ["--results", _results(tmp_path, wall_s=1.2, allocations=1100),
             "--baseline", _baseline(tmp_path)] + TRACKED)
        assert code == 0
        assert "no perf regression" in capsys.readouterr().out

    def test_fails_on_counter_regression(self, regression, tmp_path, capsys):
        code = regression.main(
            ["--results", _results(tmp_path, wall_s=1.0, allocations=2000),
             "--baseline", _baseline(tmp_path)] + TRACKED)
        assert code == 1
        assert "allocations" in capsys.readouterr().err

    def test_fails_on_path_search_regression(self, regression, tmp_path,
                                             capsys):
        code = regression.main(
            ["--results", _results(tmp_path, wall_s=1.0, allocations=1000,
                                   path_searches=2000),
             "--baseline", _baseline(tmp_path, path_searches=1000),
             "--no-wall"] + TRACKED)
        assert code == 1
        assert "path_searches" in capsys.readouterr().err

    def test_fails_on_wall_regression(self, regression, tmp_path):
        code = regression.main(
            ["--results", _results(tmp_path, wall_s=2.0, allocations=1000),
             "--baseline", _baseline(tmp_path)] + TRACKED)
        assert code == 1

    def test_no_wall_skips_machine_dependent_check(self, regression, tmp_path):
        code = regression.main(
            ["--results", _results(tmp_path, wall_s=2.0, allocations=1000),
             "--baseline", _baseline(tmp_path), "--no-wall"] + TRACKED)
        assert code == 0

    def test_update_writes_baseline(self, regression, tmp_path):
        results = _results(tmp_path, wall_s=1.5, allocations=1234)
        baseline = str(tmp_path / "new_baseline.json")
        assert regression.main(["--results", results, "--baseline", baseline,
                                "--update"] + TRACKED) == 0
        with open(baseline, encoding="utf-8") as handle:
            written = json.load(handle)
        assert written["counters"] == {"events": 1000, "allocations": 1234}
        assert written["wall_s"] == 1.5
        # And a gate against the freshly written baseline passes.
        assert regression.main(["--results", results, "--baseline", baseline]
                               + TRACKED) == 0

    def test_missing_tracked_benchmark_exits(self, regression, tmp_path):
        with pytest.raises(SystemExit):
            regression.main(
                ["--results", _results(tmp_path, 1.0, 1000),
                 "--baseline", _baseline(tmp_path),
                 "--benchmark", "benchmarks/test_x.py::test_absent"])


def _run_cheap_benchmark(tmp_path, out_path):
    """Run one cheap benchmark file under the bench conftest."""
    import subprocess
    import sys

    env = dict(os.environ,
               PYTHONPATH=os.path.join(REPO_ROOT, "src"),
               BENCH_RESULTS_PATH=str(out_path),
               BENCH_PROFILES_DIR=str(tmp_path / "BENCH_profiles"))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         os.path.join(REPO_ROOT, "benchmarks",
                      "test_bench_gridml_listings.py")],
        cwd=REPO_ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_bench_conftest_writes_results_file(tmp_path):
    """One cheap benchmark run produces a well-formed BENCH_results.json."""
    out_path = tmp_path / "BENCH_results.json"
    _run_cheap_benchmark(tmp_path, out_path)
    payload = json.loads(out_path.read_text())
    assert payload["schema"] == 2
    assert payload["code_version"]
    assert payload["results"], "no per-benchmark records written"
    record = payload["results"][0]
    assert record["benchmark"].startswith("benchmarks/")
    assert record["wall_s"] >= 0
    assert record["code_version"] == payload["code_version"]
    assert set(record["counters"]) == {"events", "allocations",
                                       "probe_memo_hits", "route_cache_hits",
                                       "route_cache_misses", "path_searches"}


def test_bench_conftest_merges_previous_results(tmp_path):
    """A partial run refreshes only its benchmarks and keeps the rest.

    Stale entries survive the merge with the ``code_version`` they were
    measured at (inherited from the old file's top level for pre-merge
    schema-1 files), while re-run benchmarks are replaced in place.
    """
    out_path = tmp_path / "BENCH_results.json"
    _write(out_path, {
        "schema": 1,
        "code_version": "oldversion",
        "results": [
            {"benchmark": "benchmarks/test_stale.py::test_kept",
             "wall_s": 42.0, "counters": {"events": 7}},
            {"benchmark": "benchmarks/test_bench_gridml_listings.py"
                          "::test_bench_gridml_documents",
             "wall_s": 41.0, "counters": {"events": 6}},
        ],
    })
    _run_cheap_benchmark(tmp_path, out_path)
    payload = json.loads(out_path.read_text())
    assert payload["schema"] == 2
    by_id = {r["benchmark"]: r for r in payload["results"]}
    kept = by_id["benchmarks/test_stale.py::test_kept"]
    assert kept["wall_s"] == 42.0
    assert kept["code_version"] == "oldversion"
    fresh = [r for r in payload["results"]
             if r["benchmark"].startswith(
                 "benchmarks/test_bench_gridml_listings.py")]
    assert fresh, "re-run benchmarks missing from the merged file"
    assert all(r["code_version"] == payload["code_version"] and
               r["wall_s"] != 41.0 for r in fresh)
