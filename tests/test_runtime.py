"""Runtime telemetry, metrics history, flight recorder and span export.

Covers the PR 10 observability surface end to end:

* :class:`repro.obs.history.MetricsHistory` — ring wraparound, windowed
  counter/gauge/histogram derivation with injected clocks, name filters;
* :class:`repro.obs.runtime.RuntimeSampler` — process readings, the GC
  watch and the standard Prometheus process metrics; the worker-side
  :func:`task_runtime` series and their real two-process merge through
  the pool task's registry delta;
* :class:`repro.obs.flightrec.FlightRecorder` — bundle contents, cooldown
  rate-limiting, pruning, and graceful failure under injected ENOSPC;
* :mod:`repro.obs.export` — Chrome-trace golden math and the
  ``repro trace --format chrome`` round-trip;
* the serve endpoints ``GET /metrics/history`` and ``POST /debug/dump``,
  serve's one telemetry thread, and ``close()`` waiting for scheduled
  flight dumps.
"""

import asyncio
import gc
import glob
import json
import os
import threading
import time

import pytest

from repro.cli import main as cli_main
from repro.faults import FaultPlan, FaultSpec, clear_plan, install_plan
from repro.obs import flightrec
from repro.obs.export import chrome_trace
from repro.obs.flightrec import FLIGHT, FlightRecorder
from repro.obs.history import MetricsHistory, base_name, \
    percentile_from_buckets
from repro.obs.metrics import REGISTRY, MetricsRegistry
from repro.obs.runtime import (
    RuntimeSampler,
    cpu_seconds,
    open_fds,
    peak_rss_bytes,
    rss_bytes,
    task_runtime,
)
from repro.serve import ReproApp, Request, start_server
from repro.sweep import run_sweep


# ---------------------------------------------------------------------------
# helpers


@pytest.fixture(autouse=True)
def _flight_hygiene():
    """The flight recorder is a process singleton; never leak a config."""
    yield
    clear_plan()
    FLIGHT.configure(flight_dir=None, history=None, health_fn=None,
                     cooldown_s=30.0, max_bundles=16)
    FLIGHT.reset_cooldowns()


def _filled_history(capacity=8, interval=5.0):
    """A private registry + history with deterministic, injected clocks."""
    registry = MetricsRegistry()
    counter = registry.counter("t_requests_total", "test counter")
    gauge = registry.gauge("t_depth", "test gauge")
    hist = registry.histogram("t_latency_seconds", "test histogram",
                              buckets=(0.01, 0.1, 1.0))
    history = MetricsHistory(registry=registry, capacity=capacity,
                             interval_s=interval)
    return registry, history, counter, gauge, hist


# ---------------------------------------------------------------------------
# metrics history


class TestMetricsHistory:
    def test_ring_wraps_at_capacity(self):
        _, history, counter, _, _ = _filled_history(capacity=8)
        counter.inc(0)
        for index in range(20):
            history.snap(ts=1000.0 + index, mono=float(index))
        assert len(history) == 8
        window = history.window(100.0)
        # Only the surviving tail is visible: snapshots 12..19.
        assert window["snapshots"] == 8
        assert window["from_ts"] == 1012.0
        assert window["to_ts"] == 1019.0

    def test_counter_window_delta_and_rate(self):
        _, history, counter, _, _ = _filled_history(capacity=16)
        counter.inc(0)
        for index in range(6):
            history.snap(ts=2000.0 + index * 5.0, mono=index * 5.0)
            counter.inc(10)
        window = history.window(60.0)
        series = window["series"]["t_requests_total"]
        assert series["type"] == "counter"
        # 5 increments of 10 landed between the first and last snapshot,
        # 25 monotonic seconds apart.
        assert series["delta"] == 50.0
        assert series["rate_per_s"] == pytest.approx(2.0)

    def test_gauge_window_last_min_max(self):
        _, history, _, gauge, _ = _filled_history()
        for index, value in enumerate((5.0, 1.0, 9.0, 4.0)):
            gauge.set(value)
            history.snap(ts=3000.0 + index, mono=float(index))
        series = history.window(60.0)["series"]["t_depth"]
        assert series["last"] == 4.0
        assert series["min"] == 1.0
        assert series["max"] == 9.0

    def test_histogram_window_percentiles_from_bucket_deltas(self):
        _, history, _, _, hist = _filled_history()
        hist.observe(0.005)                    # pre-window observation
        history.snap(ts=4000.0, mono=0.0)
        for _ in range(95):
            hist.observe(0.05)                 # bucket <= 0.1
        for _ in range(5):
            hist.observe(0.5)                  # bucket <= 1.0
        history.snap(ts=4010.0, mono=10.0)
        series = history.window(60.0)["series"]["t_latency_seconds"]
        assert series["count_delta"] == 100
        assert series["rate_per_s"] == pytest.approx(10.0)
        # The pre-window 0.005 observation is subtracted out, so p50/p95
        # land in the 0.1 bucket (cumulative 95 >= both thresholds) and
        # p99 spills into the 1.0 bucket.
        assert series["p50"] == 0.1
        assert series["p95"] == 0.1
        assert series["p99"] == 1.0

    def test_window_trims_to_horizon(self):
        _, history, _, gauge, _ = _filled_history(capacity=32)
        gauge.set(1.0)
        for index in range(10):
            history.snap(ts=5000.0 + index * 10.0, mono=index * 10.0)
        window = history.window(25.0)
        # Horizon is last mono (90) - 25 = 65: snapshots at 70, 80, 90.
        assert window["snapshots"] == 3

    def test_names_filter_matches_bare_and_labelled(self):
        registry = MetricsRegistry()
        registry.counter("t_a_total", "a", labels=("k",)) \
            .labels(k="x").inc(1)
        registry.counter("t_a_extra_total", "decoy").inc(1)
        registry.gauge("t_b", "b").set(2.0)
        history = MetricsHistory(registry=registry)
        history.snap(ts=1.0, mono=0.0)
        keys = set(history.window(60.0, names=["t_a_total"])["series"])
        assert keys == {"t_a_total{k=x}"}, \
            "the prefix match must not swallow t_a_extra_total"

    def test_empty_history_window(self):
        _, history, _, _, _ = _filled_history()
        window = history.window(60.0)
        assert window["snapshots"] == 0
        assert window["series"] == {}

    def test_snapshot_thread_starts_and_stops(self):
        _, history, counter, _, _ = _filled_history(interval=0.02)
        counter.inc(1)
        history.start()
        deadline = time.monotonic() + 5.0
        while len(history) < 3 and time.monotonic() < deadline:
            time.sleep(0.01)
        history.stop()
        assert len(history) >= 3
        settled = len(history)
        time.sleep(0.08)
        assert len(history) == settled, "thread kept snapping after stop"

    def test_snapshot_hook_errors_are_counted_not_fatal(self):
        def broken():
            raise RuntimeError("boom")

        registry = MetricsRegistry()
        history = MetricsHistory(registry=registry, on_snapshot=broken)
        history.snap(ts=1.0, mono=0.0)
        history.snap(ts=2.0, mono=1.0)
        assert history.snap_errors == 2
        assert len(history) == 2

    def test_percentile_from_buckets(self):
        buckets = {"0.1": 50, "1.0": 90, "+Inf": 100}
        assert percentile_from_buckets(buckets, 0.50) == 0.1
        assert percentile_from_buckets(buckets, 0.90) == 1.0
        assert percentile_from_buckets(buckets, 0.99) is None   # in +Inf
        assert percentile_from_buckets({}, 0.5) is None
        assert percentile_from_buckets({"+Inf": 0}, 0.5) is None

    def test_base_name(self):
        assert base_name("a_total{k=v}") == "a_total"
        assert base_name("a_total") == "a_total"


# ---------------------------------------------------------------------------
# the runtime sampler


class TestRuntimeSampler:
    def test_process_readings_are_sane(self):
        assert rss_bytes() > 1024 * 1024        # a python process is > 1MiB
        assert cpu_seconds() > 0.0
        assert open_fds() >= 3.0                # stdio at minimum

    def test_gc_watch_counts_collections(self):
        sampler = RuntimeSampler(registry=MetricsRegistry())
        sampler.gc_watch.install()
        try:
            before = sum(sampler.gc_watch.collections)
            gc.collect()
            gc.collect()
            assert sum(sampler.gc_watch.collections) >= before + 2
            assert sum(sampler.gc_watch.pause_s) >= 0.0
        finally:
            sampler.gc_watch.remove()
        settled = sum(sampler.gc_watch.collections)
        gc.collect()
        assert sum(sampler.gc_watch.collections) == settled

    def test_standard_process_metrics_on_prometheus_exposition(self):
        # RUNTIME registered the standard names on the global registry at
        # import; off-the-shelf process dashboards read these unchanged.
        text = REGISTRY.render_prometheus()
        assert "# TYPE process_resident_memory_bytes gauge" in text
        assert "# TYPE process_cpu_seconds_total counter" in text
        assert "# TYPE process_open_fds gauge" in text
        for line in text.splitlines():
            if line.startswith("process_resident_memory_bytes "):
                assert float(line.split()[1]) > 0
                break
        else:
            raise AssertionError("no process_resident_memory_bytes sample")

    def test_peak_rss_gauge_reads_ru_maxrss(self):
        # The kernel's high-water mark, read at scrape time: no sampled
        # maximum that could miss a spike between two samples.
        value = REGISTRY.value("repro_runtime_peak_rss_bytes")
        assert value > 0
        assert value == pytest.approx(peak_rss_bytes(), rel=0.05)

    def test_state_reads_the_process_now(self):
        sampler = RuntimeSampler(registry=MetricsRegistry())
        state = sampler.state()
        assert state["rss_bytes"] > 0
        assert state["peak_rss_bytes"] > 0
        assert state["threads"] >= 1
        assert state["gc_watch_installed"] is False
        assert len(state["gc_collections"]) == 3
        json.dumps(state)                       # JSON-safe for bundles

    def test_loop_monitor_measures_lag(self):
        sampler = RuntimeSampler(registry=MetricsRegistry())

        async def scenario():
            loop = asyncio.get_running_loop()
            sampler.arm_loop_monitor(loop, interval_s=0.02)
            # Block the loop thread outright: the next tick observes the
            # full stall as lag.
            time.sleep(0.1)
            await asyncio.sleep(0.05)
            sampler.disarm_loop_monitor()

        asyncio.run(scenario())
        assert sampler.loop_lag_s == 0.0        # disarm resets the gauge

    def test_task_runtime_capture(self):
        # The readings land in stored series, so the registry delta a pool
        # task ships home carries them.
        base = REGISTRY.stored()
        with task_runtime():
            blob = [list(range(1000)) for _ in range(200)]
            gc.collect()
            del blob
        changes = {(name, key): change for name, _, _, _, _, key, change
                   in REGISTRY.delta(base)}
        _, count, total, *_ = changes[("repro_worker_peak_rss_bytes", ())]
        assert count == 1 and total > 0         # one task, its peak RSS
        assert changes[("repro_worker_gc_collections_total", ("2",))][0] >= 1

    def test_task_runtime_starts_no_thread(self):
        before = set(threading.enumerate())
        with task_runtime():
            started = set(threading.enumerate()) - before
        assert not started

    def test_forked_peak_rss_starts_at_the_childs_own_rss(self):
        # Raise this process' peak by 64 MB, then free it: a forked child's
        # ru_maxrss must start near its own (smaller) RSS, or a pool
        # worker's peak would report the parent's.
        blob = bytearray(64 << 20)
        for offset in range(0, len(blob), 4096):
            blob[offset] = 1
        del blob
        parent_peak = peak_rss_bytes()
        read_end, write_end = os.pipe()
        pid = os.fork()
        if pid == 0:                                 # the child
            os.write(write_end, str(peak_rss_bytes()).encode())
            os._exit(0)
        os.close(write_end)
        child_peak = float(os.read(read_end, 64).decode())
        os.close(read_end)
        os.waitpid(pid, 0)
        assert 0 < child_peak < parent_peak - (32 << 20)


class TestWorkerRuntimeMerge:
    def test_worker_runtime_ships_home_and_merges(self, tmp_path):
        # The real two-process path: every pool task records its runtime
        # into stored repro_worker_* series, and the readings ride home in
        # the task's registry delta.
        def series(name):
            metric = REGISTRY.snapshot().get(name)
            return metric["series"] if metric else []

        cpu_before = REGISTRY.value("repro_worker_cpu_seconds_total") or 0.0
        gc_before = sum(s["value"] for s in
                        series("repro_worker_gc_collections_total"))
        peaks_before = sum(s["count"] for s in
                           series("repro_worker_peak_rss_bytes"))
        result = run_sweep(names=["ring-4", "star-hub-8", "star-switch-12"],
                           jobs=2, cache_dir=str(tmp_path))
        assert all(record.ok for record in result.records)
        assert REGISTRY.value("repro_worker_cpu_seconds_total") > cpu_before
        assert sum(s["value"] for s in
                   series("repro_worker_gc_collections_total")) > gc_before
        # One per-task peak-RSS observation per scenario.
        assert REGISTRY.snapshot()["repro_worker_peak_rss_bytes"]["type"] \
            == "histogram"
        assert sum(s["count"] for s in
                   series("repro_worker_peak_rss_bytes")) == peaks_before + 3


# ---------------------------------------------------------------------------
# the flight recorder


class TestFlightRecorder:
    def test_disabled_recorder_is_a_noop(self):
        recorder = FlightRecorder()
        assert not recorder.enabled
        assert recorder.dump("manual") is None
        assert recorder.maybe_dump("manual") is False

    def test_dump_writes_a_loadable_bundle(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("t_total", "t").inc(5)
        history = MetricsHistory(registry=registry)
        recorder = FlightRecorder(flight_dir=str(tmp_path))
        recorder.configure(history=history,
                           health_fn=lambda: {"status": "ok",
                                              "breakers": {}})
        path = recorder.dump("manual")
        assert path is not None and os.path.exists(path)
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
        assert doc["schema"] == 2
        assert doc["reason"] == "manual"
        assert doc["pid"] == os.getpid()
        assert doc["healthz"]["status"] == "ok"
        # The bundle snaps history first, so the window is never empty.
        assert doc["metrics_history"]["snapshots"] >= 1
        assert "t_total" in doc["metrics_history"]["series"]
        assert isinstance(doc["spans"], list)
        assert "runtime" in doc

    def test_cooldown_rate_limits_per_reason(self, tmp_path):
        recorder = FlightRecorder(flight_dir=str(tmp_path),
                                  cooldown_s=60.0)
        assert recorder.maybe_dump("breaker-open") is True
        assert recorder.maybe_dump("breaker-open") is False, \
            "same reason within cooldown must be suppressed"
        assert recorder.maybe_dump("slo-breach") is True, \
            "cooldowns are per reason"
        recorder.reset_cooldowns()
        assert recorder.maybe_dump("breaker-open") is True
        # The dump threads log when they finish: let them, before pytest
        # closes this test's captured streams.
        assert recorder.join(10.0)

    def test_prune_keeps_newest_bundles(self, tmp_path):
        recorder = FlightRecorder(flight_dir=str(tmp_path), max_bundles=3)
        for _ in range(6):
            assert recorder.dump("manual") is not None
        remaining = sorted(os.listdir(tmp_path))
        assert len(remaining) == 3
        # Sequence numbers are zero-padded, so lexical order is dump order
        # and the survivors are the three newest.
        assert [name.split("-")[2] for name in remaining] == \
            ["0004", "0005", "0006"]

    def test_dump_survives_injected_enospc(self, tmp_path):
        recorder = FlightRecorder(flight_dir=str(tmp_path / "flight"))
        errors_before = REGISTRY.value("repro_flight_dump_errors_total") \
            or 0.0
        install_plan(FaultPlan(specs=(
            FaultSpec(kind="enospc", match=str(tmp_path), times=-1),)))
        try:
            assert recorder.dump("manual") is None
        finally:
            clear_plan()
        assert REGISTRY.value("repro_flight_dump_errors_total") == \
            errors_before + 1
        assert not glob.glob(str(tmp_path / "flight" / "*.json")), \
            "no torn bundle may survive a failed write"
        # The disk recovers: the next dump succeeds.
        assert recorder.dump("manual") is not None


# ---------------------------------------------------------------------------
# span export


class TestChromeExport:
    SPANS = [
        {"name": "parent", "trace_id": "t1", "span_id": "s1",
         "parent_id": None, "start_ts": 100.0, "duration_s": 0.5,
         "attrs": {}},
        {"name": "child", "trace_id": "t1", "span_id": "s2",
         "parent_id": "s1", "start_ts": 100.1, "duration_s": 0.2,
         "attrs": {"pid": 777, "scenario": "ring-4"}},
    ]

    def test_golden_event_math(self):
        doc = chrome_trace(self.SPANS)
        assert doc["displayTimeUnit"] == "ms"
        events = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert [e["name"] for e in events] == ["parent", "child"]
        parent, child = events
        assert parent["ts"] == 100.0 * 1e6      # wall seconds → µs
        assert parent["dur"] == 0.5 * 1e6
        assert parent["pid"] == 0               # unstamped → submitter
        assert child["pid"] == 777              # worker-stamped
        assert child["args"]["scenario"] == "ring-4"
        assert child["args"]["parent_id"] == "s1"
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        names = {(e["name"], e["pid"]): e["args"]["name"] for e in meta}
        assert names[("process_name", 0)] == "repro"
        assert names[("process_name", 777)] == "worker-777"

    def test_malformed_spans_are_skipped(self):
        doc = chrome_trace([{"no_start": True}, "junk", None,
                            {"name": "ok", "trace_id": "t", "start_ts": 1.0,
                             "duration_s": None, "attrs": {}}])
        events = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert len(events) == 1
        assert events[0]["dur"] == 0.0          # None duration clamps to 0

    def test_cli_round_trip(self, tmp_path, capsys):
        log = tmp_path / "spans.jsonl"
        with open(log, "w", encoding="utf-8") as handle:
            for span in self.SPANS:
                handle.write(json.dumps(span) + "\n")
        out = tmp_path / "trace.json"
        status = cli_main(["trace", str(log), "--format", "chrome",
                           "--out", str(out)])
        assert status == 0
        with open(out, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
        assert {e["name"] for e in doc["traceEvents"]
                if e["ph"] == "X"} == {"parent", "child"}
        capsys.readouterr()


# ---------------------------------------------------------------------------
# the serve endpoints


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


class TestServeEndpoints:
    def test_metrics_history_endpoint(self, tmp_path):
        async def scenario(app, port):
            status, blob = await _http(port, "GET", "/healthz")
            assert status == 200
            status, blob = await _http(
                port, "GET", "/metrics/history?window=60")
            assert status == 200
            doc = json.loads(blob)
            assert doc["snapshots"] >= 1        # start() snaps immediately
            assert "process_resident_memory_bytes" in doc["series"]
            # The names filter prunes the response.
            status, blob = await _http(
                port, "GET",
                "/metrics/history?window=60&names=repro_jobs_pending")
            filtered = json.loads(blob)
            assert set(filtered["series"]) == {"repro_jobs_pending"}
            # Bad window values are a 400, not a 500.
            status, _ = await _http(
                port, "GET", "/metrics/history?window=bogus")
            assert status == 400

        _with_app(scenario, cache_dir=str(tmp_path), pool_processes=1)

    def test_serve_runs_one_telemetry_thread(self, tmp_path):
        async def scenario():
            app = ReproApp(cache_dir=str(tmp_path), pool_processes=1)
            app.start()
            try:
                names = {thread.name for thread in threading.enumerate()
                         if thread.name.startswith("repro-")}
                assert names == {"repro-metrics-history"}
                response = await app.handle(Request(
                    method="GET", path="/metrics",
                    query={"format": "prometheus"}))
            finally:
                await app.close()
            text = response.body.decode()
            for name in ("process_resident_memory_bytes",
                         "process_cpu_seconds_total", "process_open_fds",
                         "repro_runtime_threads",
                         "repro_runtime_peak_rss_bytes",
                         "repro_loop_lag_seconds",
                         "repro_gc_collections_total",
                         "repro_gc_pause_seconds_total"):
                assert f"\n{name}" in text, name

        asyncio.run(scenario())

    def test_close_waits_for_scheduled_flight_dumps(self, tmp_path,
                                                    monkeypatch):
        # Regression: maybe_dump's thread outlived the app that scheduled
        # it, so a bundle triggered just before shutdown could be lost.
        write = flightrec.write_atomic

        def slow_write(*args, **kwargs):
            time.sleep(0.3)
            return write(*args, **kwargs)

        monkeypatch.setattr(flightrec, "write_atomic", slow_write)
        flight = tmp_path / "flight"

        async def scenario():
            app = ReproApp(cache_dir=str(tmp_path), pool_processes=1,
                           flight_dir=str(flight))
            app.start()
            assert FLIGHT.maybe_dump("breaker-open")
            await app.close()
            assert glob.glob(str(flight / "flight-breaker-open-*.json"))

        asyncio.run(scenario())

    def test_debug_dump_disabled_and_enabled(self, tmp_path):
        async def scenario(app, port):
            # No --flight-dir: the trigger is a 409, not a silent no-op.
            status, _ = await _http(port, "POST", "/debug/dump")
            assert status == 409

        _with_app(scenario, cache_dir=str(tmp_path), pool_processes=1)

        flight = tmp_path / "flight"

        async def armed(app, port):
            status, blob = await _http(port, "POST", "/debug/dump")
            assert status == 200
            payload = json.loads(blob)
            assert payload["reason"] == "manual"
            assert os.path.exists(payload["path"])
            status, _ = await _http(port, "GET", "/debug/dump")
            assert status == 405

        _with_app(armed, cache_dir=str(tmp_path), pool_processes=1,
                  flight_dir=str(flight))
        bundles = glob.glob(str(flight / "flight-manual-*.json"))
        assert len(bundles) == 1
