"""Chaos suite: seeded fault plans against the sweep pool and the server.

Every test arms a deterministic :class:`repro.faults.FaultPlan` and asserts
the stack *degrades instead of breaking*: killed workers are detected and
their tasks retried, hung tasks trip per-task deadlines and pool respawns,
poisoned scenarios end up explicitly quarantined (never silently lost),
the serve dispatcher outlives its workers, circuit breakers trip and
recover, SIGTERM drains cleanly, and store write failures degrade to an
in-memory fallback rather than a 500.

Run just this file with ``make chaos``.
"""

import asyncio
import json
import os
import signal
import subprocess
import sys
import threading
import time
import urllib.request

import pytest

from repro import faults
from repro.faults import FaultPlan, FaultSpec, clear_plan, install_plan
from repro.netsim import StarSpec, generate_star
from repro.obs.flightrec import FLIGHT
from repro.obs.metrics import REGISTRY
from repro.obs.profile import PROFILER
from repro.obs.trace import TRACER
from repro.scenarios import scenario_names
from repro.scenarios.registry import register_scenario, unregister
from repro.serve import JobQueue, ReproApp, ResultStore, start_server
from repro.serve.breaker import CircuitOpen
from repro.sweep import (
    SweepRecord,
    append_jsonl,
    default_store_path,
    load_jsonl,
    respawn_pool,
    run_sweep,
    runner,
)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO_ROOT, "src")


# ---------------------------------------------------------------------------
# helpers


def _counter(name, **labels):
    return REGISTRY.value(name, **labels) or 0.0


#: Every reason a pool task is re-dispatched for.
RETRY_REASONS = ("crash", "deadline", "pool-respawn", "worker-death")


def _retries():
    return sum(_counter("repro_sweep_task_retries_total", reason=reason)
               for reason in RETRY_REASONS)


def _arm(plan):
    """Install ``plan`` and force fresh pool workers (a warm pool forked
    before the install would never see the exported plan)."""
    install_plan(plan)
    respawn_pool("chaos-arm")


@pytest.fixture(autouse=True)
def _chaos_hygiene():
    """No plan leaks in (or out), and no armed pool workers outlive a test."""
    clear_plan()
    FLIGHT.reset_cooldowns()
    yield
    clear_plan()
    # The flight recorder is a process singleton configured by ReproApp;
    # disarm it so one test's --flight-dir never leaks dumps into the next.
    FLIGHT.configure(flight_dir=None, history=None, health_fn=None)
    respawn_pool("chaos-teardown")


async def _http(port, method, target, body=None):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        payload = body if body is not None else b""
        lines = [f"{method} {target} HTTP/1.1", "Host: test"]
        if payload:
            lines.append(f"Content-Length: {len(payload)}")
        writer.write(("\r\n".join(lines) + "\r\n\r\n").encode() + payload)
        await writer.drain()
        status = int((await reader.readline()).split()[1])
        headers = {}
        while True:
            line = (await reader.readline()).decode().strip()
            if not line:
                break
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", 0))
        blob = await reader.readexactly(length) if length else b""
        return status, blob
    finally:
        writer.close()
        await writer.wait_closed()


async def _wait_job(port, job_id, timeout=60.0):
    deadline = time.monotonic() + timeout
    while True:
        status, blob = await _http(port, "GET", f"/runs/{job_id}")
        assert status == 200
        payload = json.loads(blob)
        if payload["status"] not in ("queued", "running"):
            return payload
        assert time.monotonic() < deadline, "job did not finish in time"
        await asyncio.sleep(0.05)


def _with_app(coro_fn, **app_kwargs):
    async def runner():
        app = ReproApp(**app_kwargs)
        server, port = await start_server(app)
        try:
            return await coro_fn(app, port)
        finally:
            server.close()
            await server.wait_closed()
            await app.close()
    return asyncio.run(runner())


def _flag_builder(flag):
    """Fails (error record) while the flag file exists, then recovers."""
    if os.path.exists(flag):
        raise RuntimeError("flagged to fail")
    return generate_star(StarSpec(hosts=4, kind="hub"))


def _slow_builder(seconds):
    """A healthy scenario that takes ``seconds`` to build."""
    time.sleep(seconds)
    return generate_star(StarSpec(hosts=4, kind="hub"))


# ---------------------------------------------------------------------------
# the sweep engine under injected faults


class TestSweepChaos:
    def test_catalog_sweep_survives_killed_and_hung_workers(self, tmp_path):
        # The PR's acceptance scenario: a full catalog sweep with a seeded
        # plan that kills two workers and hangs one task still completes,
        # with every scenario ok or explicitly failed — no hang, no lost
        # records.
        names = scenario_names()
        _arm(FaultPlan(seed=8, specs=(
            FaultSpec(kind="kill", match="ring-4", on_attempts=(0,)),
            FaultSpec(kind="kill", match="campus-open", on_attempts=(0,)),
            FaultSpec(kind="hang", match="star-hub-8", on_attempts=(0,),
                      delay_s=30.0),
        )))
        deaths_before = _counter("repro_sweep_worker_deaths_total")
        result = run_sweep(names=names, jobs=4, cache_dir=str(tmp_path),
                           retries=2, task_deadline_s=8.0)
        assert [r.scenario for r in result.records] == names
        assert all(r.status in ("ok", "failed") for r in result.records)
        # The seeded faults are recoverable (attempt 0 only): all ok.
        assert result.errors == []
        stored = load_jsonl(result.out_path)
        assert sorted(r.scenario for r in stored) == sorted(names)
        # The kill faults fire (and count) inside worker processes that die
        # with their metrics: the parent-side evidence is the death and
        # deadline detection counters.
        assert _counter("repro_sweep_worker_deaths_total") >= \
            deaths_before + 2
        assert _counter("repro_sweep_task_deadlines_total") >= 1
        assert _counter("repro_sweep_pool_respawns_total") >= 1

    def test_poisoned_scenario_is_quarantined_not_lost(self, tmp_path):
        # A scenario whose worker dies on *every* attempt must exhaust its
        # retries and land as an explicit status="failed" record.
        _arm(FaultPlan(specs=(
            FaultSpec(kind="kill", match="ring-4", times=-1),)))
        quarantined_before = _counter("repro_sweep_tasks_quarantined_total")
        result = run_sweep(names=["ring-4", "star-hub-8"], jobs=2,
                           cache_dir=str(tmp_path), retries=1,
                           task_deadline_s=2.0)
        by_name = {r.scenario: r for r in result.records}
        assert by_name["star-hub-8"].ok
        poisoned = by_name["ring-4"]
        assert poisoned.status == "failed"
        assert "quarantined" in poisoned.error
        assert _counter("repro_sweep_tasks_quarantined_total") == \
            quarantined_before + 1
        # The quarantine record is stored, not dropped.
        stored = {r.scenario: r for r in load_jsonl(result.out_path)}
        assert stored["ring-4"].status == "failed"
        # A failed record is never cached: the next sweep re-tries it.
        clear_plan()
        again = run_sweep(names=["ring-4"], jobs=1, cache_dir=str(tmp_path))
        assert again.records[0].ok

    def test_last_attempt_death_quarantines_without_the_deadline(
            self, tmp_path):
        # Regression: a task whose worker died on its last attempt waited
        # out task_deadline_s, then respawned the pool.
        _arm(FaultPlan(specs=(
            FaultSpec(kind="kill", match="ring-4", times=-1),)))
        respawns_before = _counter("repro_sweep_pool_respawns_total")
        started = time.monotonic()
        result = run_sweep(names=["ring-4", "star-hub-8"], jobs=2,
                           cache_dir=str(tmp_path), retries=0,
                           task_deadline_s=15.0)
        assert time.monotonic() - started < 7.5
        by_name = {r.scenario: r for r in result.records}
        assert by_name["star-hub-8"].ok
        assert by_name["ring-4"].status == "failed"
        assert "exited with code" in by_name["ring-4"].error
        assert _counter("repro_sweep_pool_respawns_total") == respawns_before

    def test_scenario_beside_a_dying_worker_finishes_ok(self, tmp_path):
        # A death fails only the task its worker picked up: the healthy
        # scenario in flight beside it runs on, even without retries.
        register_scenario("test-chaos-slow", family="test-internal",
                          seconds=2.0)(_slow_builder)
        _arm(FaultPlan(specs=(
            FaultSpec(kind="kill", match="ring-4", times=-1),)))
        result = run_sweep(names=["test-chaos-slow", "ring-4"], jobs=2,
                           cache_dir=str(tmp_path), retries=0,
                           task_deadline_s=10.0)
        by_name = {r.scenario: r for r in result.records}
        assert by_name["test-chaos-slow"].ok, \
            by_name["test-chaos-slow"].error
        assert by_name["ring-4"].status == "failed"

    def test_clean_recycle_is_not_a_death(self, tmp_path, monkeypatch):
        # Regression: a maxtasksperchild recycle (exit code 0) counted as a
        # worker death, and each death re-dispatched the tasks in flight.
        # The sweep's pool recycles every worker after one task.
        monkeypatch.setattr(runner._warm_pool, "__defaults__", (1,))
        respawn_pool("recycle-after-every-task")
        deaths_before = _counter("repro_sweep_worker_deaths_total")
        retries_before = _retries()
        result = run_sweep(names=["ring-4", "star-hub-8", "star-switch-12",
                                  "wan-grid-3x2"],
                           jobs=2, cache_dir=str(tmp_path))
        assert all(r.ok for r in result.records)
        assert _counter("repro_sweep_worker_deaths_total") == deaths_before
        assert _retries() == retries_before

    def test_workers_dying_at_start_fail_their_tasks_fast(
            self, tmp_path, monkeypatch):
        # Regression: workers whose initializer raised died before any
        # pick-up report, so no task failed; the stdlib pool restarted
        # them in a tight loop until every task's deadline expired.
        respawn_pool("cold-start")     # a warm pool skips the initializer

        def broken_initializer(pickups):
            raise RuntimeError("initializer failed")

        monkeypatch.setattr(runner, "_pool_initializer", broken_initializer)
        deaths_before = _counter("repro_sweep_worker_deaths_total")
        started = time.monotonic()
        try:
            result = run_sweep(names=["ring-4", "star-hub-8"], jobs=2,
                               cache_dir=str(tmp_path), retries=1,
                               task_deadline_s=20.0)
        finally:
            respawn_pool("initializer-restored")
        assert time.monotonic() - started < 10.0
        assert [r.status for r in result.records] == ["failed", "failed"]
        assert all("before picking a task up" in r.error
                   for r in result.records)
        assert _counter("repro_sweep_worker_deaths_total") - deaths_before \
            < 20

    def test_retry_reasons_are_labels_not_exception_text(self, tmp_path):
        # Regression: a parallel sweep labelled the retry with the injected
        # exception's text; the text belongs in the log line and the
        # quarantine record.
        _arm(FaultPlan(specs=(
            FaultSpec(kind="raise", match="star-hub-8", on_attempts=(0,)),)))
        crashes_before = _counter("repro_sweep_task_retries_total",
                                  reason="crash")
        result = run_sweep(names=["ring-4", "star-hub-8"], jobs=2,
                           cache_dir=str(tmp_path), retries=1)
        assert all(r.ok for r in result.records)
        assert _counter("repro_sweep_task_retries_total", reason="crash") \
            == crashes_before + 1
        series = REGISTRY.snapshot()["repro_sweep_task_retries_total"]
        assert {doc["labels"]["reason"] for doc in series["series"]} <= \
            set(RETRY_REASONS)

    def test_injected_raise_is_retried_in_serial_sweeps(self, tmp_path):
        install_plan(FaultPlan(specs=(
            FaultSpec(kind="raise", match="star-hub-8", on_attempts=(0,)),)))
        result = run_sweep(names=["star-hub-8"], jobs=1,
                           cache_dir=str(tmp_path), retries=2)
        assert result.records[0].ok
        assert _counter("repro_faults_injected_total",
                        site="worker", kind="raise") >= 1

    def test_serial_poison_quarantines_too(self, tmp_path):
        install_plan(FaultPlan(specs=(
            FaultSpec(kind="raise", match="star-hub-8", times=-1),)))
        result = run_sweep(names=["star-hub-8"], jobs=1,
                           cache_dir=str(tmp_path), retries=1)
        record = result.records[0]
        assert record.status == "failed"
        assert "quarantined" in record.error


# ---------------------------------------------------------------------------
# the serve dispatcher under injected faults


class TestServeChaos:
    def test_dispatcher_survives_killed_worker(self, tmp_path):
        # Satellite regression: async_result.get() on a task whose worker
        # was SIGKILLed used to raise out of the dispatcher loop, killing
        # job processing for the life of the server.
        _arm(FaultPlan(specs=(
            FaultSpec(kind="kill", match="ring-4", times=-1),)))

        async def scenario():
            queue = JobQueue(cache_dir=str(tmp_path), pool_processes=1,
                             timeout_s=60.0, retries=0)
            queue.start()
            try:
                job = queue.submit("ring-4")
                deadline = time.monotonic() + 60.0
                while not job.done:
                    assert time.monotonic() < deadline
                    await asyncio.sleep(0.05)
                assert job.status == "error"
                assert "worker lost" in job.error
                # The dispatcher is still alive: the next job completes.
                clear_plan()
                follow_up = queue.submit("star-hub-8")
                while not follow_up.done:
                    assert time.monotonic() < deadline
                    await asyncio.sleep(0.05)
                assert follow_up.status == "ok"
            finally:
                await queue.close()

        asyncio.run(scenario())

    def test_job_beside_a_dying_worker_finishes_ok(self, tmp_path):
        # Regression: any worker death failed every job in flight after a
        # 0.25 s grace; now it fails only the job its worker picked up.
        register_scenario("test-chaos-slow", family="test-internal",
                          seconds=2.0)(_slow_builder)
        _arm(FaultPlan(specs=(
            FaultSpec(kind="kill", match="ring-4", times=-1),)))

        async def scenario():
            queue = JobQueue(cache_dir=str(tmp_path), pool_processes=2,
                             timeout_s=60.0, retries=0)
            queue.start()
            try:
                slow = queue.submit("test-chaos-slow")
                doomed = queue.submit("ring-4")
                deadline = time.monotonic() + 60.0
                while not (slow.done and doomed.done):
                    assert time.monotonic() < deadline
                    await asyncio.sleep(0.05)
                assert doomed.status == "error"
                assert "worker lost" in doomed.error
                assert slow.status == "ok", slow.error
            finally:
                await queue.close()

        asyncio.run(scenario())

    def test_killed_worker_is_retried_and_healthz_stays_green(self, tmp_path):
        _arm(FaultPlan(specs=(
            FaultSpec(kind="kill", match="ring-4", on_attempts=(0,)),)))
        retried_before = _retries()

        async def scenario(app, port):
            body = json.dumps({"scenario": "ring-4"}).encode()
            status, blob = await _http(port, "POST", "/runs", body)
            assert status == 202
            payload = await _wait_job(port, json.loads(blob)["id"])
            assert payload["status"] == "ok"
            assert payload["retries_used"] >= 1
            status, blob = await _http(port, "GET", "/healthz")
            health = json.loads(blob)
            assert status == 200 and health["status"] == "ok"
            assert health["draining"] is False
            status, blob = await _http(port, "GET", "/metrics")
            assert status == 200
            assert b"repro_sweep_task_retries_total" in blob
            assert b"repro_faults_injected_total" in blob

        _with_app(scenario, cache_dir=str(tmp_path), pool_processes=1,
                  job_retries=2)
        assert _retries() >= retried_before + 1

    def test_breaker_trips_on_repeated_failures_and_recovers(self, tmp_path):
        flag = str(tmp_path / "failing.flag")
        with open(flag, "w", encoding="utf-8") as handle:
            handle.write("fail\n")
        # Under `make chaos` the bundles land in CHAOS_flight/ so CI can
        # assert and archive them; standalone runs use the test tmp dir.
        flight_dir = os.environ.get("REPRO_CHAOS_FLIGHT_DIR") or \
            str(tmp_path / "flight")
        register_scenario("test-chaos-flaky", family="test-internal",
                          flag=flag)(_flag_builder)
        try:
            async def scenario(app, port):
                body = json.dumps({"scenario": "test-chaos-flaky"}).encode()
                for _ in range(2):          # threshold: 2 straight failures
                    status, blob = await _http(port, "POST", "/runs", body)
                    assert status == 202
                    payload = await _wait_job(port, json.loads(blob)["id"])
                    assert payload["status"] == "error"
                # Open: submissions are rejected with 503, but the server
                # itself stays healthy.
                status, blob = await _http(port, "POST", "/runs", body)
                assert status == 503
                status, blob = await _http(port, "GET", "/healthz")
                health = json.loads(blob)
                assert status == 200 and health["status"] == "ok"
                assert health["breakers"]["test-chaos-flaky"]["state"] == \
                    "open"
                status, blob = await _http(port, "GET", "/metrics")
                assert b"repro_breaker_transitions_total" in blob
                # Fix the scenario, wait out the cooldown: the half-open
                # probe succeeds and the breaker closes.
                os.remove(flag)
                await asyncio.sleep(0.35)
                status, blob = await _http(port, "POST", "/runs", body)
                assert status == 202
                payload = await _wait_job(port, json.loads(blob)["id"])
                assert payload["status"] == "ok"
                status, blob = await _http(port, "GET", "/healthz")
                assert json.loads(blob)["breakers"] == {}

            _with_app(scenario, cache_dir=str(tmp_path), pool_processes=1,
                      breaker_threshold=2, breaker_cooldown_s=0.3,
                      flight_dir=flight_dir)
            assert _counter("repro_breaker_transitions_total", to="open") >= 1
            assert _counter("repro_breaker_transitions_total",
                            to="closed") >= 1
            # The breaker opening must have produced a forensics bundle
            # (the dump runs on a daemon thread, so poll briefly).
            bundle = self._wait_for_bundle(flight_dir, "breaker-open")
            with open(bundle, "r", encoding="utf-8") as handle:
                doc = json.load(handle)
            assert doc["reason"] == "breaker-open"
            assert isinstance(doc["spans"], list)
            if os.environ.get("REPRO_CHAOS_SPAN_LOG"):
                # Under `make chaos` the conftest arms full sampling, so
                # the bundle must carry the span ring tail.
                assert doc["spans"], "bundle carries the span ring tail"
            assert doc["metrics_history"]["snapshots"] >= 1
            # The dump runs concurrently with the test's recovery phase, so
            # the captured breaker may already be half-open/closed again;
            # only its presence in the health snapshot shape is guaranteed.
            assert "breakers" in doc["healthz"]
        finally:
            unregister("test-chaos-flaky")

    @staticmethod
    def _wait_for_bundle(flight_dir, reason, timeout=10.0):
        import glob

        pattern = os.path.join(flight_dir, f"flight-{reason}-*.json")
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            found = sorted(glob.glob(pattern))
            if found:
                return found[-1]
            time.sleep(0.05)
        raise AssertionError(f"no flight bundle matching {pattern}")

    def test_open_breaker_rejects_at_submit(self, tmp_path):
        queue = JobQueue(cache_dir=str(tmp_path), breaker_threshold=1)
        queue.breakers.record("doomed", ok=False)
        with pytest.raises(CircuitOpen):
            queue.breakers.allow("doomed")

    def test_persist_failure_degrades_to_in_memory_fallback(self, tmp_path):
        # Store writes fail (disk full): the job still completes, the
        # record lands in the store's in-memory fallback, queries keep
        # answering, and nothing raises out of the dispatcher.
        install_plan(FaultPlan(specs=(
            FaultSpec(kind="enospc", match=str(tmp_path), times=-1),)))
        persist_errors_before = _counter("repro_job_persist_errors_total")

        async def scenario(app, port):
            body = json.dumps({"scenario": "star-hub-8"}).encode()
            status, blob = await _http(port, "POST", "/runs", body)
            assert status == 202
            payload = await _wait_job(port, json.loads(blob)["id"])
            assert payload["status"] == "ok"
            # The record is queryable despite the dead disk.
            status, blob = await _http(
                port, "GET", "/results?scenario=star-hub-8")
            assert status == 200
            results = json.loads(blob)
            assert results["total"] == 1
            assert app.store.fallback_count() == 1
            status, blob = await _http(port, "GET", "/healthz")
            health = json.loads(blob)
            assert status == 200 and health["status"] == "ok"
            assert health["store_fallback_records"] == 1
            # The disk recovers: flush lands the fallback records on disk.
            clear_plan()
            app.store.flush()
            assert app.store.fallback_count() == 0

        _with_app(scenario, cache_dir=str(tmp_path), pool_processes=1)
        assert _counter("repro_job_persist_errors_total") > \
            persist_errors_before
        assert _counter("repro_store_fallback_records_total") >= 1
        records = load_jsonl(default_store_path(str(tmp_path)))
        assert any(r.scenario == "star-hub-8" and r.ok for r in records)


# ---------------------------------------------------------------------------
# locks a pool task takes, across fork


_FORK_LOCKS = {
    "faults": lambda: faults._lock,
    "registry": lambda: REGISTRY._lock,
    "tracer": lambda: TRACER._lock,
    "profiler": lambda: PROFILER._lock,
}


class TestForkSafeLocks:
    """The pool's maintenance thread forks replacement workers at any
    moment: a worker forked while another thread holds one of these locks
    must not inherit it held."""

    @pytest.mark.parametrize("owner", sorted(_FORK_LOCKS))
    def test_child_forked_while_the_lock_is_held_can_take_it(self, owner):
        lock_of = _FORK_LOCKS[owner]
        held, release = threading.Event(), threading.Event()

        def hold():
            with lock_of():
                held.set()
                release.wait(10)

        holder = threading.Thread(target=hold)
        holder.start()
        try:
            assert held.wait(10)
            pid = os.fork()
            if pid == 0:                 # the child: take the lock, or fail
                try:
                    os._exit(0 if lock_of().acquire(timeout=2) else 1)
                finally:
                    os._exit(1)
            _, status = os.waitpid(pid, 0)
        finally:
            release.set()
            holder.join(10)
        assert not holder.is_alive()
        assert os.waitstatus_to_exitcode(status) == 0


# ---------------------------------------------------------------------------
# SIGTERM graceful drain (whole-process)


class TestGracefulDrain:
    def test_sigterm_drains_jobs_and_exits_zero(self, tmp_path):
        env = dict(os.environ, PYTHONPATH=SRC)
        env.pop("REPRO_FAULT_PLAN", None)
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             "--jobs", "1", "--cache-dir", str(tmp_path),
             "--trace-sample", "0", "--drain-timeout", "30"],
            cwd=REPO_ROOT, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            assert "serving on http://" in line, line
            port = int(line.strip().rsplit(":", 1)[1])
            body = json.dumps({"scenario": "star-hub-8"}).encode()
            request = urllib.request.Request(
                f"http://127.0.0.1:{port}/runs", data=body, method="POST",
                headers={"Content-Type": "application/json"})
            with urllib.request.urlopen(request, timeout=30) as response:
                assert response.status == 202
            # SIGTERM immediately: the drain must finish the in-flight job
            # and persist its record before exiting cleanly.
            proc.send_signal(signal.SIGTERM)
            _, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, err
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        records = load_jsonl(default_store_path(str(tmp_path)))
        assert any(r.scenario == "star-hub-8" and r.ok for r in records)


# ---------------------------------------------------------------------------
# two-process store resilience (satellite: injected ENOSPC/torn tails)


_WRITER_SCRIPT = """
import json, os, sys
sys.path.insert(0, {src!r})
from repro.sweep import SweepRecord, append_jsonl
committed = []
for index in range({count}):
    record = SweepRecord(scenario="chaos-%03d" % index, family="chaos",
                         scenario_hash="h", code_version="c", status="ok",
                         summary={{"payload": "x" * 120}})
    try:
        append_jsonl({store_path!r}, [record])
    except OSError:
        continue                      # not committed: the write failed
    committed.append(record.scenario)
print(json.dumps(committed))
"""


class TestStoreResilienceTwoProcess:
    N_RECORDS = 40

    def test_no_committed_record_is_lost_to_injected_write_faults(
            self, tmp_path):
        store_path = str(tmp_path / "results.jsonl")
        # The child writer's appends fail probabilistically — flat ENOSPC
        # and torn half-lines both — while this process reads the store
        # (with its *own* sidecar-write faults) mid-stream.
        child_plan = FaultPlan(seed=13, specs=(
            FaultSpec(kind="enospc", match="results.jsonl",
                      probability=0.2, times=-1),
            FaultSpec(kind="torn", match="results.jsonl",
                      probability=0.2, times=-1),
        ))
        env = dict(os.environ, REPRO_FAULT_PLAN=child_plan.to_json())
        writer = subprocess.Popen(
            [sys.executable, "-c", _WRITER_SCRIPT.format(
                src=SRC, count=self.N_RECORDS, store_path=store_path)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=env)
        # This process: the sidecar index write fails (advisory — queries
        # must keep working off the in-memory index).
        install_plan(FaultPlan(specs=(
            FaultSpec(kind="enospc", match=".idx.json", times=-1),)))
        sidecar_errors_before = _counter(
            "repro_store_sidecar_write_errors_total")
        store = ResultStore(store_path)
        try:
            while writer.poll() is None:
                if os.path.exists(store_path):
                    records, total = store.query(family="chaos", limit=5)
                    assert len(records) <= total
                time.sleep(0.01)
        finally:
            out, err = writer.communicate(timeout=120)
            store.close()
        assert writer.returncode == 0, err
        committed = json.loads(out)
        assert committed, "the child committed nothing — plan too harsh?"
        assert len(committed) < self.N_RECORDS, \
            "no fault ever fired — plan too lax?"
        assert _counter("repro_store_sidecar_write_errors_total") > \
            sidecar_errors_before
        # Every committed record survives both the torn tails around it and
        # the sidecar outage; a fresh store converges on the same truth.
        clear_plan()
        fresh = ResultStore(store_path)
        try:
            records, total = fresh.query(family="chaos",
                                         limit=self.N_RECORDS + 1)
            names = {r.scenario for r in records}
            assert total == len(committed)
            assert names == set(committed)
        finally:
            fresh.close()


# ---------------------------------------------------------------------------
# store degradation (in-memory fallback) unit coverage


class TestStoreFallback:
    def _record(self, name):
        return SweepRecord(scenario=name, family="chaos", scenario_hash="h",
                           code_version="c", status="ok",
                           summary={"completeness": 1.0})

    def test_remembered_records_answer_queries(self, tmp_path):
        path = str(tmp_path / "results.jsonl")
        store = ResultStore(path)
        try:
            append_jsonl(path, [self._record("on-disk")])
            token_before = store.state_token()
            store.remember([self._record("in-memory")])
            assert store.fallback_count() == 1
            assert store.count() == 2
            assert store.state_token() != token_before
            records, total = store.query(family="chaos", limit=10)
            assert total == 2
            # Fallback records are the newest.
            assert [r.scenario for r in records] == ["on-disk", "in-memory"]
            newest = store.query(family="chaos", limit=1,
                                 newest_first=True)[0]
            assert newest[0].scenario == "in-memory"
            assert store.latest("in-memory").scenario == "in-memory"
            entry = store.latest_entry("in-memory")
            assert entry is not None and entry.status == "ok"
            assert "in-memory" in store.scenarios_seen()
        finally:
            store.close()

    def test_flush_lands_fallback_records_on_disk(self, tmp_path):
        path = str(tmp_path / "results.jsonl")
        store = ResultStore(path)
        try:
            store.remember([self._record("parked")])
            store.flush()
            assert store.fallback_count() == 0
            records, total = store.query(scenario="parked", limit=1)
            assert total == 1 and records[0].scenario == "parked"
        finally:
            store.close()
        assert any(r.scenario == "parked" for r in load_jsonl(path))
