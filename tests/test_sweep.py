"""Tests of the sweep engine: sharding, caching, result store and CLI."""

import json
import os
import subprocess
import sys

import pytest

from repro.cli import main
from repro.obs.metrics import REGISTRY
from repro.scenarios import scenario_names
from repro.scenarios.registry import _REGISTRY, register_scenario
from repro.sweep import (
    SweepRecord,
    append_jsonl,
    cache_path,
    code_version,
    load_jsonl,
    run_scenario,
    run_sweep,
    summary_rows,
)

SMOKE = "smoke"


class TestCodeVersion:
    def test_stable_hex_digest(self):
        assert code_version() == code_version()
        assert len(code_version()) == 64
        int(code_version(), 16)


class TestRunScenario:
    def test_ok_record_carries_pipeline_summary(self):
        record = run_scenario("star-hub-8")
        assert record.ok and record.error is None
        assert record.family == "star"
        assert record.summary["hosts"] == 8
        assert record.summary["completeness"] == pytest.approx(1.0)
        assert set(record.summary["timings"]) == {"map", "plan", "quality"}

    def test_builder_failure_yields_error_record(self):
        @register_scenario("test-broken", family="test-internal")
        def _broken():
            raise RuntimeError("deliberately broken scenario")

        try:
            record = run_scenario("test-broken")
            assert not record.ok
            assert "deliberately broken" in record.error
            assert record.summary is None
        finally:
            del _REGISTRY["test-broken"]


class TestRunSweep:
    def test_smoke_sweep_serial(self, tmp_path):
        result = run_sweep(pattern=SMOKE, jobs=1, cache_dir=str(tmp_path))
        assert len(result.records) >= 4
        assert result.errors == []
        assert result.cache_hits == 0
        stored = load_jsonl(result.out_path)
        assert [r.scenario for r in stored] == \
            [r.scenario for r in result.records]

    def test_second_invocation_hits_cache_near_instant(self, tmp_path):
        first = run_sweep(pattern=SMOKE, jobs=1, cache_dir=str(tmp_path))
        second = run_sweep(pattern=SMOKE, jobs=1, cache_dir=str(tmp_path))
        assert second.cache_hits == len(second.records) == len(first.records)
        assert all(r.cached for r in second.records)
        # Cached sweeps do no mapping work at all: near-instant.
        assert second.elapsed_s < max(0.5, first.elapsed_s / 4)

    def test_rerun_ignores_cache(self, tmp_path):
        run_sweep(pattern=SMOKE, jobs=1, cache_dir=str(tmp_path))
        again = run_sweep(pattern=SMOKE, jobs=1, cache_dir=str(tmp_path),
                          rerun=True)
        assert again.cache_hits == 0
        assert all(not r.cached for r in again.records)

    def test_warm_pool_respects_lower_jobs_cap(self, tmp_path):
        # Regression: reusing a larger warm pool for a smaller request ran
        # more pipelines concurrently than the caller allowed.
        from repro.sweep import runner
        run_sweep(pattern=SMOKE, jobs=4, cache_dir=str(tmp_path / "a"))
        assert runner._pool_processes == 4
        warm = runner._pool
        # Same cap, different todo count: the warm pool is reused.
        run_sweep(names=["star-switch-12", "ring-4"], jobs=4,
                  cache_dir=str(tmp_path / "a"))
        assert runner._pool is warm
        run_sweep(pattern=SMOKE, jobs=2, cache_dir=str(tmp_path / "b"))
        assert runner._pool_processes == 2

    def test_parallel_sweep_over_full_catalog(self, tmp_path):
        names = scenario_names()
        assert len(names) >= 10
        result = run_sweep(names=names, jobs=4, cache_dir=str(tmp_path))
        assert result.errors == []
        assert [r.scenario for r in result.records] == names
        assert os.path.exists(result.out_path)
        table = result.summary_table()
        for name in names:
            assert name in table
        # Acceptance: the follow-up invocation is served from the cache.
        warm = run_sweep(names=names, jobs=4, cache_dir=str(tmp_path))
        assert warm.cache_hits == len(names)
        assert warm.elapsed_s < max(0.5, result.elapsed_s / 4)

    def test_explicit_names_and_pattern_compose(self, tmp_path):
        result = run_sweep(names=["star-hub-8", "ring-4"], pattern="star",
                           jobs=1, cache_dir=str(tmp_path))
        assert [r.scenario for r in result.records] == ["star-hub-8"]

    def test_duplicate_names_run_once(self, tmp_path):
        # Regression: duplicates in ``names`` used to run the scenario twice
        # and append duplicate records to the result store.
        result = run_sweep(names=["star-hub-8", "campus-open", "star-hub-8"],
                           jobs=1, cache_dir=str(tmp_path))
        assert [r.scenario for r in result.records] == \
            ["star-hub-8", "campus-open"]
        stored = load_jsonl(result.out_path)
        assert [r.scenario for r in stored] == ["star-hub-8", "campus-open"]

    def test_empty_selection_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="no scenarios"):
            run_sweep(pattern="match-nothing-at-all", cache_dir=str(tmp_path))
        with pytest.raises(ValueError, match="jobs"):
            run_sweep(pattern=SMOKE, jobs=0, cache_dir=str(tmp_path))

    def test_cache_key_includes_scenario_hash_and_code_version(self, tmp_path):
        path = cache_path(str(tmp_path), "star-hub-8")
        base = os.path.basename(path)
        assert base.startswith("star-hub-8-")
        assert code_version()[:12] in base

    def test_cache_key_separates_run_parameters(self, tmp_path):
        assert cache_path(str(tmp_path), "star-hub-8", period_s=10.0) != \
            cache_path(str(tmp_path), "star-hub-8", period_s=600.0)
        assert cache_path(str(tmp_path), "star-hub-8",
                          baselines=("subnet",)) != \
            cache_path(str(tmp_path), "star-hub-8")
        # Differently-flagged sweeps never serve each other's results.
        first = run_sweep(names=["star-hub-8"], cache_dir=str(tmp_path),
                          period_s=10.0)
        other = run_sweep(names=["star-hub-8"], cache_dir=str(tmp_path),
                          period_s=600.0)
        assert first.cache_hits == 0 and other.cache_hits == 0
        assert os.path.exists(cache_path(str(tmp_path), "star-hub-8",
                                         period_s=10.0))
        assert os.path.exists(cache_path(str(tmp_path), "star-hub-8",
                                         period_s=600.0))
        warm = run_sweep(names=["star-hub-8"], cache_dir=str(tmp_path),
                         period_s=600.0)
        assert warm.cache_hits == 1

    def test_dynamic_cache_key_ignores_baselines(self, tmp_path):
        # Dynamic replays have no baseline stage, so a --baselines change
        # must not invalidate their cached (expensive) replay results.
        assert cache_path(str(tmp_path), "dyn-hub-flash",
                          baselines=("subnet",)) == \
            cache_path(str(tmp_path), "dyn-hub-flash")
        run_sweep(names=["dyn-hub-flash"], cache_dir=str(tmp_path))
        warm = run_sweep(names=["dyn-hub-flash"], cache_dir=str(tmp_path),
                         baselines=("subnet",))
        assert warm.cache_hits == 1

    def test_truncated_cache_entry_is_rerun_and_repaired(self, tmp_path):
        # Regression: a truncated/corrupt cache file (killed worker mid-write
        # before writes were atomic) must be treated as a miss, not served as
        # a half-parsed record.
        run_sweep(names=["star-hub-8"], cache_dir=str(tmp_path))
        path = cache_path(str(tmp_path), "star-hub-8")
        with open(path, "r", encoding="utf-8") as handle:
            full = handle.read()
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(full[:len(full) // 2])
        again = run_sweep(names=["star-hub-8"], cache_dir=str(tmp_path))
        assert again.cache_hits == 0 and again.errors == []
        # The entry is rewritten whole; the next sweep hits it.
        warm = run_sweep(names=["star-hub-8"], cache_dir=str(tmp_path))
        assert warm.cache_hits == 1

    def test_cache_writes_leave_no_temp_files(self, tmp_path):
        run_sweep(pattern=SMOKE, jobs=1, cache_dir=str(tmp_path))
        leftovers = [n for n in os.listdir(str(tmp_path))
                     if n.startswith(".tmp-")]
        assert leftovers == []

    def test_cache_entries_have_umask_governed_permissions(self, tmp_path):
        # mkstemp creates 0600 temp files; the atomic writer must restore
        # normal permissions or a shared cache silently stops being shared.
        run_sweep(names=["star-hub-8"], cache_dir=str(tmp_path))
        path = cache_path(str(tmp_path), "star-hub-8")
        umask = os.umask(0)
        os.umask(umask)
        assert os.stat(path).st_mode & 0o777 == 0o666 & ~umask

    def test_error_records_are_not_cached(self, tmp_path):
        @register_scenario("test-flaky", family="test-internal")
        def _flaky():
            raise RuntimeError("boom")

        try:
            result = run_sweep(names=["test-flaky"], cache_dir=str(tmp_path))
            assert len(result.errors) == 1
            assert not os.path.exists(cache_path(str(tmp_path), "test-flaky"))
            # The failure is retried, not served from a poisoned cache.
            retry = run_sweep(names=["test-flaky"], cache_dir=str(tmp_path))
            assert retry.cache_hits == 0
        finally:
            del _REGISTRY["test-flaky"]


    def test_parallel_sweep_counts_scenario_errors_here(self, tmp_path):
        """Regression: a worker's scenario-error tick rides its task result
        home, so a ``jobs=2`` sweep counts errors like a ``jobs=1`` one."""
        for name in ("test-broken-a", "test-broken-b"):
            register_scenario(name, family="test-internal")(_broken_scenario)
        try:
            before = REGISTRY.value("repro_sweep_task_errors_total") or 0.0
            result = run_sweep(names=["test-broken-a", "test-broken-b"],
                               jobs=2, cache_dir=str(tmp_path))
            assert len(result.errors) == 2
            assert REGISTRY.value("repro_sweep_task_errors_total") == \
                before + 2
        finally:
            for name in ("test-broken-a", "test-broken-b"):
                del _REGISTRY[name]


def _broken_scenario():
    raise RuntimeError("deliberately broken scenario")


class TestResultStore:
    def test_jsonl_roundtrip(self, tmp_path):
        path = str(tmp_path / "store" / "results.jsonl")
        records = [
            SweepRecord(scenario="a", family="f", scenario_hash="h1",
                        code_version="c", elapsed_s=0.5,
                        summary={"hosts": 3}),
            SweepRecord(scenario="b", family="f", scenario_hash="h2",
                        code_version="c", status="error", error="trace"),
        ]
        append_jsonl(path, records)
        append_jsonl(path, records[:1])
        loaded = load_jsonl(path)
        assert len(loaded) == 3
        assert loaded[0] == records[0]
        assert loaded[1].status == "error"

    def test_from_json_rejects_missing_required_fields(self):
        # Regression: records used to deserialise with scenario=None from
        # corrupt store lines and poison summary_rows.
        with pytest.raises(ValueError, match="required"):
            SweepRecord.from_json('{"scenario": "a"}')
        with pytest.raises(ValueError, match="required"):
            SweepRecord.from_json(
                '{"scenario": "", "family": "f", "scenario_hash": "h", '
                '"code_version": "c"}')
        with pytest.raises(ValueError, match="JSON object"):
            SweepRecord.from_json('["not", "a", "record"]')
        with pytest.raises(ValueError, match="status"):
            SweepRecord.from_json(
                '{"scenario": "a", "family": "f", "scenario_hash": "h", '
                '"code_version": "c", "status": "weird"}')
        # Optional fields fall back to dataclass defaults.
        record = SweepRecord.from_json(
            '{"scenario": "a", "family": "f", "scenario_hash": "h", '
            '"code_version": "c"}')
        assert record.ok and record.cached is False and record.summary is None

    def test_load_jsonl_skips_corrupt_lines_with_warning(self, tmp_path):
        path = str(tmp_path / "results.jsonl")
        good = SweepRecord(scenario="a", family="f", scenario_hash="h",
                           code_version="c", summary={"hosts": 3})
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(good.to_json() + "\n")
            handle.write('{"scenario": "trunca')        # interrupted append
            handle.write("\n[1, 2]\n")                  # wrong shape
            handle.write('{"scenario": null, "family": "f", '
                         '"scenario_hash": "h", "code_version": "c"}\n')
            handle.write('{"scenario": "x", "family": "f", '
                         '"scenario_hash": "h", "code_version": "c", '
                         '"summary": "oops"}\n')          # mistyped optional
            handle.write('{"scenario": "y", "family": "f", '
                         '"scenario_hash": "h", "code_version": "c", '
                         '"elapsed_s": "fast"}\n')
        with pytest.warns(UserWarning, match="skipping bad sweep record"):
            loaded = load_jsonl(path)
        assert loaded == [good]
        assert [r["scenario"] for r in summary_rows(loaded)] == ["a"]

    def test_summary_rows_tolerate_missing_summary(self):
        rows = summary_rows([
            SweepRecord(scenario="b", family="f", scenario_hash="h",
                        code_version="c", status="error"),
            SweepRecord(scenario="a", family="f", scenario_hash="h",
                        code_version="c", cached=True,
                        summary={"hosts": 4, "completeness": 1.0}),
        ])
        assert [r["scenario"] for r in rows] == ["a", "b"]
        assert rows[0]["status"] == "ok (cached)"
        assert rows[1]["hosts"] == ""


class TestSummaryHardening:
    def test_rows_are_sorted_regardless_of_record_order(self):
        records = [
            SweepRecord(scenario=name, family="f", scenario_hash="h",
                        code_version="c", summary={"hosts": 1})
            for name in ("zeta", "alpha", "mid")
        ]
        for ordering in (records, records[::-1], records[1:] + records[:1]):
            assert [r["scenario"] for r in summary_rows(ordering)] == \
                ["alpha", "mid", "zeta"]

    def test_records_json_is_deterministic_and_sorted(self):
        from repro.sweep import records_json
        import json
        records = [
            SweepRecord(scenario="b", family="f", scenario_hash="h2",
                        code_version="c", summary={"hosts": 3}),
            SweepRecord(scenario="a", family="f", scenario_hash="h1",
                        code_version="c", status="error", error="trace"),
        ]
        text = records_json(records)
        assert text == records_json(records[::-1])
        payload = json.loads(text)
        assert [r["scenario"] for r in payload] == ["a", "b"]
        assert payload[0]["status"] == "error"

    def test_cli_sweep_json_format(self, capsys, tmp_path):
        import json
        assert main(["sweep", "--filter", "star-hub-8", "--format", "json",
                     "--cache-dir", str(tmp_path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["scenario"] == "star-hub-8"
        assert payload[0]["status"] == "ok"

    def test_cli_sweep_exits_nonzero_on_errored_record(self, capsys, tmp_path):
        @register_scenario("test-cli-broken", family="test-internal")
        def _broken():
            raise RuntimeError("boom")

        try:
            code = main(["sweep", "--filter", "test-cli-broken",
                         "--cache-dir", str(tmp_path)])
            assert code == 1
            assert "test-cli-broken" in capsys.readouterr().err
            code = main(["sweep", "--filter", "test-cli-broken",
                         "--format", "json", "--cache-dir", str(tmp_path)])
            assert code == 1
        finally:
            del _REGISTRY["test-cli-broken"]


class TestSweepCLI:
    def test_scenarios_command_lists_registry(self, capsys):
        assert main(["scenarios"]) == 0
        out = capsys.readouterr().out
        for name in ("ens-lyon", "wan-grid-2x2", "degraded-asym"):
            assert name in out
        assert "scenarios registered" in out

    def test_scenarios_filter_no_match(self, capsys):
        assert main(["scenarios", "--filter", "match-nothing"]) == 1

    def test_sweep_command_runs_and_caches(self, capsys, tmp_path):
        args = ["sweep", "--jobs", "2", "--filter", SMOKE,
                "--cache-dir", str(tmp_path)]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "0 served from cache" in out
        assert "results appended to" in out
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "4 served from cache" in out


class TestHashSeedIndependence:
    """Results must not depend on string-hash order.  RC001 checks set
    iteration in hash-critical modules statically; this runs the smoke
    sweep under two ``PYTHONHASHSEED`` values and compares the records."""

    SCRIPT = (
        "import sys\n"
        "from repro.sweep import run_sweep\n"
        "result = run_sweep(pattern='smoke', jobs=1, rerun=True,\n"
        "                   cache_dir=sys.argv[1])\n"
        "for record in result.records:\n"
        "    print('RECORD', record.to_json())\n")

    def test_smoke_records_do_not_depend_on_hash_seed(self, tmp_path):
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        runs = {}
        for seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            runs[seed] = subprocess.Popen(
                [sys.executable, "-c", self.SCRIPT,
                 str(tmp_path / f"cache-{seed}")],
                env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        records = {}
        for seed, process in runs.items():
            out, err = process.communicate(timeout=300)
            assert process.returncode == 0, err.decode()
            records[seed] = [json.loads(line[len("RECORD "):])
                             for line in out.decode().splitlines()
                             if line.startswith("RECORD ")]
            for record in records[seed]:
                assert record["status"] == "ok", record["error"]
                # Wall-clock readings are the only expected difference.
                del record["elapsed_s"]
                del record["summary"]["timings"]
        assert len(records["0"]) >= 4
        assert records["0"] == records["1"]


class TestConcurrentStoreWriters:
    """Two processes appending to one JSONL store (+ sidecar index) must
    corrupt neither — the store writes are single O_APPEND syscalls and the
    index is advisory, rebuilt from whatever the store holds."""

    N_PER_WRITER = 200

    def _spawn_writer(self, store_path, tag):
        import subprocess
        import sys
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        script = (
            "import sys\n"
            f"sys.path.insert(0, {src!r})\n"
            "from repro.sweep import SweepRecord, append_jsonl\n"
            "from repro.serve import ResultStore\n"
            f"store = ResultStore({store_path!r})\n"
            f"for i in range({self.N_PER_WRITER}):\n"
            f"    record = SweepRecord(scenario=f'{tag}-{{i:04d}}',\n"
            f"                         family={tag!r}, scenario_hash='h',\n"
            "                          code_version='c',\n"
            "                          summary={'payload': 'x' * 200})\n"
            f"    append_jsonl({store_path!r}, [record])\n")
        return subprocess.Popen([sys.executable, "-c", script],
                                stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE)

    def test_parallel_appends_interleave_only_at_record_boundaries(
            self, tmp_path):
        from repro.serve import ResultStore
        store_path = str(tmp_path / "results.jsonl")
        writers = [self._spawn_writer(store_path, tag)
                   for tag in ("alpha", "beta")]
        for writer in writers:
            _, err = writer.communicate(timeout=120)
            assert writer.returncode == 0, err.decode()
        # Every record of both writers survived, bit-exact.
        records = load_jsonl(store_path)
        assert len(records) == 2 * self.N_PER_WRITER
        for tag in ("alpha", "beta"):
            mine = [r for r in records if r.family == tag]
            assert [r.scenario for r in mine] == \
                [f"{tag}-{i:04d}" for i in range(self.N_PER_WRITER)]
        # The index — whatever racing state the writers left it in — serves
        # the same view after a refresh.
        store = ResultStore(store_path)
        try:
            assert store.count() == 2 * self.N_PER_WRITER
            records, total = store.query(family="alpha")
            assert total == self.N_PER_WRITER
            assert store.latest("beta-0199") is not None
        finally:
            store.close()

    def test_writer_racing_a_live_index_reader(self, tmp_path):
        # A ResultStore refreshing mid-append must only ever see whole
        # records (the torn-tail guard) and eventually converge.
        from repro.serve import ResultStore
        store_path = str(tmp_path / "results.jsonl")
        writer = self._spawn_writer(store_path, "gamma")
        store = ResultStore(store_path)
        try:
            while writer.poll() is None:
                store.refresh()                   # must never raise
            _, err = writer.communicate()
            assert writer.returncode == 0, err.decode()
            assert store.count() == self.N_PER_WRITER
        finally:
            store.close()
