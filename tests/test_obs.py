"""Tests of the observability layer: tracer, metrics, logs, timeline.

The span concurrency tests mirror the result-store discipline tests: spans
recorded from many threads must survive a simultaneous metrics scrape, and
two processes appending to one JSONL span log must interleave only at line
boundaries.
"""

import json
import logging
import math
import os
import subprocess
import sys
import threading

import pytest

from repro import perf
from repro.cli import main
from repro.obs import (
    NULL_SPAN,
    TRACER,
    MetricsRegistry,
    group_traces,
    kv,
    load_span_log,
    render_timeline,
    setup_logging,
    to_json_line,
)
from repro.obs.logs import get_logger
from repro.perf import fast_path_enabled, set_fast_path
from repro.obs.export import chrome_trace
from repro.sweep import run_sweep
from repro.sweep.runner import TaskContext, respawn_pool, submit_scenario

# ---------------------------------------------------------------------------
# helpers / fixtures


@pytest.fixture(autouse=True)
def _tracer_isolation():
    """Every test starts and ends with the tracer disabled and empty."""
    TRACER.reset()
    yield
    TRACER.reset()


class _ListHandler(logging.Handler):
    def __init__(self):
        super().__init__()
        self.records = []

    def emit(self, record):
        self.records.append(record)


@pytest.fixture
def trace_log_records():
    """Capture records of the tracer's logger without touching handlers of
    the ``repro`` root (setup_logging may or may not have run)."""
    handler = _ListHandler()
    logger = logging.getLogger("repro.obs.trace")
    logger.addHandler(handler)
    yield handler.records
    logger.removeHandler(handler)


# ---------------------------------------------------------------------------
# tracing


class TestTracer:
    def test_disabled_by_default_and_near_free(self):
        assert TRACER.sample_rate == 0.0 and not TRACER.enabled
        assert TRACER.start_trace("root") is NULL_SPAN
        # Outside any trace, span() is the shared null singleton — no
        # allocation, nothing recorded.
        with TRACER.span("child") as span:
            assert span is NULL_SPAN
        assert TRACER.current_context() is None
        assert len(TRACER) == 0

    def test_supplied_trace_id_forces_sampling(self):
        with TRACER.start_trace("serve.request",
                                trace_id="client-chose-this") as root:
            assert root.sampled and root.trace_id == "client-chose-this"
            with TRACER.span("inner"):
                pass
        names = [s["name"] for s in TRACER.trace("client-chose-this")]
        assert names == ["serve.request", "inner"]

    def test_malformed_trace_id_falls_back_to_sampling(self):
        assert TRACER.start_trace("r", trace_id="has spaces") is NULL_SPAN
        assert TRACER.start_trace("r", trace_id="x" * 65) is NULL_SPAN
        TRACER.configure(sample_rate=1.0)
        span = TRACER.start_trace("r", trace_id="bad id")
        assert span.sampled and span.trace_id != "bad id"
        with span:
            pass

    def test_nesting_links_parent_ids_and_orders_spans(self):
        TRACER.configure(sample_rate=1.0)
        with TRACER.start_trace("root", kind="test") as root:
            with TRACER.span("a") as a:
                with TRACER.span("a.1"):
                    pass
            with TRACER.span("b"):
                pass
        spans = {s["name"]: s for s in TRACER.trace(root.trace_id)}
        assert spans["a"]["parent_id"] == root.span_id
        assert spans["a.1"]["parent_id"] == a.span_id
        assert spans["b"]["parent_id"] == root.span_id
        assert spans["root"]["parent_id"] is None
        assert all(s["duration_s"] >= 0.0 for s in spans.values())
        # trace() orders by start time: the root opened first.
        assert [s["name"] for s in TRACER.trace(root.trace_id)][0] == "root"

    def test_perf_counter_deltas_attach_to_spans(self):
        TRACER.configure(sample_rate=1.0)
        with TRACER.start_trace("root"):
            with TRACER.span("work"):
                perf.EVENTS.value += 3
                perf.ALLOCATIONS.value += 2
        work = next(s for s in TRACER.spans() if s["name"] == "work")
        assert work["attrs"]["perf"] == {"events": 3, "allocations": 2}
        root = next(s for s in TRACER.spans() if s["name"] == "root")
        # The root saw the same work; untouched counters never appear.
        assert root["attrs"]["perf"]["events"] == 3
        assert "route_cache_hits" not in work["attrs"]["perf"]

    def test_exception_marks_span_and_propagates(self):
        TRACER.configure(sample_rate=1.0)
        with pytest.raises(RuntimeError):
            with TRACER.start_trace("boom"):
                raise RuntimeError("nope")
        span = TRACER.spans()[-1]
        assert span["attrs"]["error"] == "RuntimeError"

    def test_ring_buffer_is_bounded(self):
        TRACER.configure(sample_rate=1.0, capacity=4)
        for i in range(10):
            with TRACER.start_trace(f"s{i}"):
                pass
        spans = TRACER.spans()
        assert len(spans) == 4
        assert [s["name"] for s in spans] == ["s6", "s7", "s8", "s9"]

    def test_configure_validates_sample_rate(self):
        with pytest.raises(ValueError):
            TRACER.configure(sample_rate=1.5)

    def test_capture_adopt_and_ingest_round_trip(self):
        """The pool-worker protocol, in-process: capture spans under an
        adopted context, ship the dicts, ingest them elsewhere."""
        TRACER.configure(sample_rate=1.0)
        with TRACER.start_trace("submitter") as root:
            context = TRACER.current_context()
        assert context == {"trace_id": root.trace_id,
                           "span_id": root.span_id}
        # "Worker side": adopt the shipped context, capture what finishes.
        with TRACER.capture() as captured:
            with TRACER.adopt(context, "sweep.run_scenario", fast_path=True):
                with TRACER.span("pipeline.map"):
                    pass
        assert [s["name"] for s in captured.spans] == \
            ["pipeline.map", "sweep.run_scenario"]
        assert all(s["trace_id"] == root.trace_id for s in captured.spans)
        # "Submitter side": ingestion folds them into the ring (here they
        # are already present; ingest must still accept and append).
        before = len(TRACER)
        TRACER.ingest(captured.spans)
        TRACER.ingest(None)
        TRACER.ingest([{"not-a-span": True}, "junk"])
        assert len(TRACER) == before + 2

    def test_adopt_without_context_is_null(self):
        assert TRACER.adopt(None, "w") is NULL_SPAN
        assert TRACER.adopt({}, "w") is NULL_SPAN

    def test_record_external_spans(self):
        TRACER.configure(sample_rate=1.0)
        with TRACER.start_trace("root") as root:
            context = TRACER.current_context()
        TRACER.record_external("queue_wait", context, start_ts=123.0,
                               duration_s=0.5, job="job-1")
        TRACER.record_external("dropped", None, start_ts=0.0, duration_s=1.0)
        waits = [s for s in TRACER.spans() if s["name"] == "queue_wait"]
        assert len(waits) == 1
        assert waits[0]["parent_id"] == root.span_id
        assert waits[0]["start_ts"] == 123.0
        assert waits[0]["duration_s"] == 0.5
        assert not any(s["name"] == "dropped" for s in TRACER.spans())

    def test_span_log_appends_jsonl(self, tmp_path):
        log = str(tmp_path / "spans.jsonl")
        TRACER.configure(sample_rate=1.0, log_path=log)
        with TRACER.start_trace("root"):
            with TRACER.span("child"):
                pass
        spans = load_span_log(log)
        assert [s["name"] for s in spans] == ["child", "root"]
        assert TRACER.log_errors == 0

    def test_unwritable_span_log_counts_not_raises(self, tmp_path):
        TRACER.configure(sample_rate=1.0, log_path=str(tmp_path))  # a dir
        with TRACER.start_trace("root"):
            pass
        assert TRACER.log_errors == 1

    def test_slow_span_warning(self, trace_log_records):
        TRACER.configure(sample_rate=1.0, slow_span_s=1e-9)
        with TRACER.start_trace("sluggish"):
            pass
        messages = [r.getMessage() for r in trace_log_records]
        assert any("event=slow_span" in m and "name=sluggish" in m
                   for m in messages)


# ---------------------------------------------------------------------------
# metrics


class TestMetrics:
    def test_counter_gauge_histogram_basics(self):
        reg = MetricsRegistry()
        counter = reg.counter("c_total", "a counter")
        counter.inc()
        counter.inc(2)
        with pytest.raises(ValueError):
            counter.inc(-1)
        gauge = reg.gauge("g", "a gauge")
        gauge.set(4.5)
        hist = reg.histogram("h_seconds", "a histogram",
                             buckets=(0.1, 1.0))
        hist.observe(0.05)
        hist.observe(0.5)
        hist.observe(99.0)
        snap = reg.snapshot()
        assert snap["c_total"]["series"][0]["value"] == 3
        assert snap["g"]["series"][0]["value"] == 4.5
        series = snap["h_seconds"]["series"][0]
        assert series["count"] == 3
        assert series["sum"] == pytest.approx(99.55)
        # Buckets are cumulative, +Inf last.
        assert series["buckets"] == {"0.1": 1, "1": 2, "+Inf": 3}

    def test_labels_resolve_per_series(self):
        reg = MetricsRegistry()
        metric = reg.histogram("stage_seconds", labels=("stage",),
                               buckets=(1.0,))
        metric.labels(stage="map").observe(0.5)
        metric.labels(stage="map").observe(0.7)
        metric.labels(stage="plan").observe(0.1)
        snap = reg.snapshot()["stage_seconds"]["series"]
        by_stage = {s["labels"]["stage"]: s["count"] for s in snap}
        assert by_stage == {"map": 2, "plan": 1}
        with pytest.raises(ValueError):
            metric.labels(wrong="x")
        with pytest.raises(ValueError):
            metric.observe(1.0)          # labelled: must go through labels()

    def test_registration_is_get_or_create(self):
        reg = MetricsRegistry()
        first = reg.counter("same", "one")
        assert reg.counter("same") is first
        with pytest.raises(ValueError):
            reg.gauge("same")            # kind mismatch
        # A new callback re-binds (app instances re-register idempotently).
        reg.gauge("depth", fn=lambda: 1)
        reg.gauge("depth", fn=lambda: 2)
        assert reg.snapshot()["depth"]["series"][0]["value"] == 2

    def test_kind_mismatch_operations_raise(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter("c").set(1)
        with pytest.raises(ValueError):
            reg.counter("c").observe(1)
        with pytest.raises(ValueError):
            reg.histogram("h").set_callback(lambda: 1)
        with pytest.raises(ValueError):
            reg.histogram("empty", buckets=())

    def test_non_callable_callback_is_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(TypeError, match="callable"):
            reg.gauge("bytes", fn=0)      # e.g. fn=obj.some_property
        assert reg.value("bytes") is None

    def test_broken_callback_degrades_to_nan(self):
        reg = MetricsRegistry()

        def broken():
            raise RuntimeError("scrape me anyway")

        reg.gauge("flaky", fn=broken)
        reg.counter("fine", fn=lambda: 7)
        snap = reg.snapshot()
        assert snap["flaky"]["series"][0]["value"] is None
        assert snap["fine"]["series"][0]["value"] == 7
        text = reg.render_prometheus()
        assert "flaky NaN" in text
        assert "fine 7" in text

    def test_prometheus_text_exposition(self):
        reg = MetricsRegistry()
        reg.counter("req_total", "requests\nserved").inc(5)
        hist = reg.histogram("lat_seconds", "latency", labels=("route",),
                             buckets=(0.1, 1.0))
        hist.labels(route='/x"y').observe(0.05)
        hist.labels(route='/x"y').observe(0.5)
        text = reg.render_prometheus()
        assert text.endswith("\n")
        lines = text.splitlines()
        assert "# HELP req_total requests\\nserved" in lines
        assert "# TYPE req_total counter" in lines
        assert "req_total 5" in lines
        assert "# TYPE lat_seconds histogram" in lines
        assert 'lat_seconds_bucket{route="/x\\"y",le="0.1"} 1' in lines
        assert 'lat_seconds_bucket{route="/x\\"y",le="1"} 2' in lines
        assert 'lat_seconds_bucket{route="/x\\"y",le="+Inf"} 2' in lines
        assert 'lat_seconds_count{route="/x\\"y"} 2' in lines

    def test_zero_clears_values_but_keeps_handles_live(self):
        reg = MetricsRegistry()
        counter = reg.counter("served_total")
        counter.inc(7)
        hist = reg.histogram("wait_seconds", labels=("q",),
                             buckets=(0.1, 1.0))
        hist.labels(q="a").observe(0.5)
        reg.zero()
        text = reg.render_prometheus()
        assert "served_total 0" in text
        assert 'wait_seconds_count{q="a"} 0' in text
        # The pre-zero handles still feed the same registry.
        counter.inc(2)
        hist.labels(q="a").observe(0.05)
        text = reg.render_prometheus()
        assert "served_total 2" in text
        assert 'wait_seconds_bucket{q="a",le="0.1"} 1' in text

    def test_delta_carries_stored_counters_and_histograms_only(self):
        worker = MetricsRegistry()
        jobs = worker.counter("jobs_total", "jobs", labels=("kind",))
        hist = worker.histogram("stage_seconds", "stages", labels=("stage",),
                                buckets=(0.1, 1.0))
        depth = worker.gauge("depth")
        worker.counter("cpu_seconds_total", fn=lambda: 42.0)
        jobs.labels(kind="a").inc()
        base = worker.stored()
        jobs.labels(kind="a").inc(2)
        jobs.labels(kind="b").inc()
        hist.labels(stage="map").observe(0.5)
        depth.set(9)
        delta = worker.delta(base)
        assert sorted(row[0] for row in delta) == \
            ["jobs_total", "jobs_total", "stage_seconds"]
        parent = MetricsRegistry()
        parent.counter("jobs_total", "jobs", labels=("kind",)) \
            .labels(kind="a").inc(10)
        parent.merge(delta)
        parent.merge(worker.delta(worker.stored()))      # nothing new
        assert parent.value("jobs_total", kind="a") == 12
        assert parent.value("jobs_total", kind="b") == 1
        [series] = parent.snapshot()["stage_seconds"]["series"]
        assert series["labels"] == {"stage": "map"}
        assert series["count"] == 1 and series["sum"] == 0.5
        assert series["buckets"] == {"0.1": 0, "1": 1, "+Inf": 1}
        # Gauges and callback-backed series stay per-process.
        assert parent.value("depth") is None
        assert parent.value("cpu_seconds_total") is None

    def test_global_registry_exports_subsystem_metrics(self):
        # Importing the instrumented layers registered their metrics
        # against the process-wide registry.
        from repro.obs import REGISTRY
        import repro.pipeline  # noqa: F401 — registration side effect
        import repro.serve.app  # noqa: F401
        import repro.serve.jobs  # noqa: F401
        text = REGISTRY.render_prometheus()
        assert "# TYPE repro_pipeline_stage_seconds histogram" in text
        assert "# TYPE repro_http_request_seconds histogram" in text
        assert "# TYPE repro_job_queue_wait_seconds histogram" in text
        assert "# TYPE repro_perf_events_total counter" in text


# ---------------------------------------------------------------------------
# structured logging


class TestLogs:
    def test_setup_logging_levels_and_format(self):
        import io
        stream = io.StringIO()
        logger = setup_logging("info", stream=stream)
        try:
            get_logger("unit").info("event=test %s", kv(key="value"))
            get_logger("unit").debug("event=hidden")
            line = stream.getvalue().strip()
            assert line.count("\n") == 0
            assert "level=INFO" in line
            assert "logger=repro.unit" in line
            assert "event=test key=value" in line
        finally:
            logger.handlers[:] = []      # detach the test stream

    def test_setup_logging_rejects_unknown_level(self):
        with pytest.raises(ValueError):
            setup_logging("chatty")

    def test_get_logger_prefix(self):
        assert get_logger("serve.access").name == "repro.serve.access"
        assert get_logger("repro.x").name == "repro.x"

    def test_kv_rendering(self):
        assert kv(a=1, b="plain", c="needs space") == \
            'a=1 b=plain c="needs space"'
        assert kv(f=1.25, t=True, n=None) == "f=1.25 t=true n=none"
        assert kv(ms=0.5000001) == "ms=0.5"
        assert kv(empty="") == 'empty=""'

    def test_to_json_line(self):
        line = to_json_line({"b": 1, "a": 2})
        assert line == '{"a":2,"b":1}\n'


# ---------------------------------------------------------------------------
# timelines


class TestTimeline:
    @staticmethod
    def _span(name, span_id, parent_id=None, start=0.0, dur=0.1, **attrs):
        return {"trace_id": "t1", "span_id": span_id,
                "parent_id": parent_id, "name": name,
                "start_ts": 100.0 + start, "duration_s": dur,
                "attrs": attrs}

    def test_render_timeline_tree(self):
        spans = [
            self._span("serve.request", "a", start=0.0, dur=1.0, status=202),
            self._span("serve.queue_wait", "b", parent_id="a",
                       start=0.01, dur=0.02),
            self._span("sweep.run_scenario", "c", parent_id="a",
                       start=0.05, dur=0.9, perf={"allocations": 12}),
        ]
        text = render_timeline(spans, trace_id="t1")
        lines = text.splitlines()
        assert lines[0].startswith("trace t1 — 3 spans")
        assert "serve.request" in lines[1]
        assert lines[2].startswith("  serve.queue_wait")
        assert "perf.allocations=12" in lines[3]
        assert "status=202" in lines[1]

    def test_orphans_render_as_roots(self):
        spans = [self._span("lonely", "z", parent_id="gone")]
        text = render_timeline(spans)
        assert "lonely" in text and "(no spans)" not in text
        assert render_timeline([], trace_id="t1") == "(no spans)"

    def test_load_span_log_skips_bad_lines(self, tmp_path):
        path = tmp_path / "log.jsonl"
        good = self._span("ok", "s1")
        path.write_text(json.dumps(good) + "\n"
                        "not json\n"
                        '{"no_trace": 1}\n'
                        + json.dumps(good) + "\n")
        with pytest.warns(UserWarning):
            spans = load_span_log(str(path))
        assert len(spans) == 2

    def test_group_traces_orders_by_first_start(self):
        late = dict(self._span("late", "l"), trace_id="t-late",
                    start_ts=200.0)
        early = dict(self._span("early", "e"), trace_id="t-early",
                     start_ts=50.0)
        groups = group_traces([late, early])
        assert list(groups) == ["t-early", "t-late"]

    def test_cli_trace_command(self, tmp_path, capsys):
        log = str(tmp_path / "spans.jsonl")
        TRACER.configure(sample_rate=1.0, log_path=log)
        with TRACER.start_trace("cli.map"):
            with TRACER.span("env.lookup"):
                pass
        trace_id = TRACER.spans()[-1]["trace_id"]
        assert main(["trace", log]) == 0
        out = capsys.readouterr().out
        assert f"trace {trace_id}" in out
        assert "env.lookup" in out
        assert main(["trace", log, "--trace-id", trace_id]) == 0
        assert main(["trace", log, "--trace-id", "missing"]) == 1

    def test_cli_trace_missing_and_empty_logs_diagnose(self, tmp_path,
                                                       capsys):
        """An absent or span-free log is an operator mistake: a pointed
        diagnostic on stderr and exit 1, not a generic error exit."""
        absent = str(tmp_path / "absent.jsonl")
        assert main(["trace", absent]) == 1
        err = capsys.readouterr().err
        assert "cannot read span log" in err
        assert "--trace-log" in err          # the fix is suggested
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["trace", str(empty)]) == 1
        err = capsys.readouterr().err
        assert "no spans" in err
        assert "--trace-sample" in err

    def test_cli_trace_orphaned_parents_diagnose(self, tmp_path, capsys):
        """Orphaned parent ids mean the log is incomplete: the timeline
        still renders (orphans as extra roots) but the exit is non-zero."""
        log = tmp_path / "spans.jsonl"
        spans = [self._span("root", "s1"),
                 dict(self._span("child", "s2"), parent_id="vanished")]
        log.write_text("".join(json.dumps(s) + "\n" for s in spans))
        assert main(["trace", str(log)]) == 1
        captured = capsys.readouterr()
        assert "child" in captured.out       # still rendered
        assert "orphan" in captured.out      # and marked in the timeline
        assert "orphaned span(s)" in captured.err
        # A complete log keeps exiting 0.
        log.write_text(json.dumps(self._span("root", "s1")) + "\n")
        assert main(["trace", str(log)]) == 0

    def test_cli_root_span_reaches_log(self, tmp_path, capsys):
        log = str(tmp_path / "spans.jsonl")
        assert main(["scenarios", "--filter", "star-hub-8",
                     "--trace-sample", "1.0", "--trace-log", log]) == 0
        names = [s["name"] for s in load_span_log(log)]
        assert "cli.scenarios" in names


# ---------------------------------------------------------------------------
# concurrency: threads into the ring during a scrape, processes into the log


class TestConcurrency:
    N_THREADS = 8
    SPANS_PER_THREAD = 60

    def test_threaded_recording_survives_concurrent_scrape(self):
        from repro.obs import REGISTRY
        TRACER.configure(sample_rate=1.0,
                         capacity=self.N_THREADS * self.SPANS_PER_THREAD + 8)
        errors = []
        start = threading.Barrier(self.N_THREADS + 1)

        def record(index):
            try:
                start.wait()
                context = {"trace_id": f"thread-{index}", "span_id": "root"}
                for i in range(self.SPANS_PER_THREAD):
                    with TRACER.adopt(context, f"work-{i}", thread=index):
                        pass
            except Exception as exc:   # noqa: BLE001 — surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=record, args=(i,))
                   for i in range(self.N_THREADS)]
        for thread in threads:
            thread.start()
        start.wait()
        # Scrape the registry and read the ring while writers are running:
        # a torn read would raise or return malformed rows.
        for _ in range(50):
            text = REGISTRY.render_prometheus()
            assert text.endswith("\n")
            for span in TRACER.spans():
                assert "trace_id" in span
        for thread in threads:
            thread.join()
        assert not errors
        assert len(TRACER) == self.N_THREADS * self.SPANS_PER_THREAD
        for index in range(self.N_THREADS):
            spans = TRACER.trace(f"thread-{index}")
            assert len(spans) == self.SPANS_PER_THREAD

    N_PER_WRITER = 150

    def _spawn_writer(self, log_path, tag):
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        script = (
            "import sys\n"
            f"sys.path.insert(0, {src!r})\n"
            "from repro.obs import TRACER\n"
            f"TRACER.configure(sample_rate=1.0, log_path={log_path!r})\n"
            f"for i in range({self.N_PER_WRITER}):\n"
            f"    with TRACER.start_trace('write', writer={tag!r},\n"
            "                             payload='x' * 200):\n"
            "        pass\n")
        return subprocess.Popen([sys.executable, "-c", script],
                                stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE)

    def test_two_process_span_log_appends_stay_line_atomic(self, tmp_path):
        log_path = str(tmp_path / "spans.jsonl")
        writers = [self._spawn_writer(log_path, tag)
                   for tag in ("alpha", "beta")]
        for writer in writers:
            _, err = writer.communicate(timeout=120)
            assert writer.returncode == 0, err.decode()
        # Every span of both writers survived, parseable, no torn lines.
        with open(log_path, "r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        assert len(lines) == 2 * self.N_PER_WRITER
        spans = [json.loads(line) for line in lines]
        for tag in ("alpha", "beta"):
            mine = [s for s in spans if s["attrs"]["writer"] == tag]
            assert len(mine) == self.N_PER_WRITER
            assert all(s["attrs"]["payload"] == "x" * 200 for s in mine)


# ---------------------------------------------------------------------------
# span-log rotation (size cap, cross-process safety)


class TestSpanLogRotation:
    def test_rotate_if_needed_caps_and_keeps_one_generation(self, tmp_path):
        from repro.ioutils import rotate_if_needed

        path = str(tmp_path / "log.jsonl")
        assert rotate_if_needed(path, 100) is False          # missing file
        with open(path, "w") as handle:
            handle.write("x" * 50)
        assert rotate_if_needed(path, 100) is False          # under the cap
        assert rotate_if_needed(path, 0) is False            # cap disabled
        with open(path, "a") as handle:
            handle.write("y" * 60)
        assert rotate_if_needed(path, 100) is True
        assert not os.path.exists(path)                      # moved aside
        with open(path + ".1") as handle:
            assert handle.read() == "x" * 50 + "y" * 60
        # The next call sees no file again — no cascade of renames.
        assert rotate_if_needed(path, 100) is False

    def test_tracer_rotates_span_log_without_losing_records(self, tmp_path):
        log = str(tmp_path / "spans.jsonl")
        # ~19 KB of ~310-byte lines against a 12 KB cap: exactly one
        # rotation (a second one would overwrite .1 and lose records).
        TRACER.configure(sample_rate=1.0, log_path=log, log_max_bytes=12_000)
        total = 60
        for index in range(total):
            with TRACER.start_trace("rotated", index=index,
                                    payload="x" * 120):
                pass
        assert os.path.exists(log + ".1"), "the cap never triggered"
        spans = load_span_log(log + ".1") + load_span_log(log)
        assert len(spans) == total
        assert sorted(s["attrs"]["index"] for s in spans) == list(
            range(total))

    N_PER_WRITER = 120
    #: 240 records of ~400 bytes ≈ 96 KB — between one and two caps, so
    #: the log rotates exactly once while both writers are racing.
    ROTATE_AT = 64_000

    def _spawn_rotating_writer(self, log_path, tag):
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        script = (
            "import sys\n"
            f"sys.path.insert(0, {src!r})\n"
            "from repro.obs import TRACER\n"
            f"TRACER.configure(sample_rate=1.0, log_path={log_path!r},\n"
            f"                 log_max_bytes={self.ROTATE_AT})\n"
            f"for i in range({self.N_PER_WRITER}):\n"
            f"    with TRACER.start_trace('write', writer={tag!r},\n"
            "                             payload='x' * 200):\n"
            "        pass\n")
        return subprocess.Popen([sys.executable, "-c", script],
                                stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE)

    def test_two_process_rotation_loses_no_records(self, tmp_path):
        """Two processes appending across a rotation: every record survives,
        whole, in either the log or its ``.1`` sibling.

        An unserialised rotation would let the race's loser rename the
        fresh, near-empty log over the just-written ``.1`` and silently
        discard it; the flock in ``rotate_if_needed`` makes the loser
        re-check and stand down.  Sized for exactly one rotation: total
        bytes land between one and two caps.
        """
        log_path = str(tmp_path / "spans.jsonl")
        writers = [self._spawn_rotating_writer(log_path, tag)
                   for tag in ("alpha", "beta")]
        for writer in writers:
            _, err = writer.communicate(timeout=120)
            assert writer.returncode == 0, err.decode()
        assert os.path.exists(log_path + ".1"), "the cap never triggered"
        spans = load_span_log(log_path + ".1") + load_span_log(log_path)
        assert len(spans) == 2 * self.N_PER_WRITER
        for tag in ("alpha", "beta"):
            mine = [s for s in spans if s["attrs"]["writer"] == tag]
            assert len(mine) == self.N_PER_WRITER
            assert all(s["attrs"]["payload"] == "x" * 200 for s in mine)


# ---------------------------------------------------------------------------
# per-task context propagation to pool workers (fast_path + trace)


class TestTaskContext:
    def test_current_captures_ambient_state(self):
        TRACER.configure(sample_rate=1.0)
        with TRACER.start_trace("submitter") as root:
            context = TaskContext.current()
        assert context.fast_path is True
        assert context.trace == {"trace_id": root.trace_id,
                                 "span_id": root.span_id}
        assert TaskContext.current().trace is None   # outside the trace

    def test_pool_worker_applies_shipped_context(self):
        """The propagated fast_path value — not the worker's stale global —
        governs the task, and the worker's spans come home with the trace."""
        TRACER.configure(sample_rate=1.0)
        set_fast_path(False)
        try:
            with TRACER.start_trace("submitter") as root:
                async_result = submit_scenario("ring-4", processes=1)
            result = async_result.get(timeout=180)
        finally:
            set_fast_path(True)
        record = result.record
        assert record.ok, record.error
        # The registry delta carries the worker's pipeline work.
        grown = {row[0] for row in result.metrics}
        assert {"repro_perf_allocations_total",
                "repro_pipeline_stage_seconds"} <= grown
        assert result.profile is None        # no profile_hz requested
        by_name = {s["name"]: s for s in result.spans}
        worker = by_name["sweep.run_scenario"]
        # Satellite pin: the submitter's fast_path=False rode along and was
        # applied, whatever state the warm worker was forked under.
        assert worker["attrs"]["fast_path"] is False
        assert worker["trace_id"] == root.trace_id
        assert worker["parent_id"] == root.span_id
        # The pipeline stages nested under it, in the worker process.
        for stage in ("pipeline.simulate", "pipeline.map", "pipeline.plan"):
            assert by_name[stage]["trace_id"] == root.trace_id
            assert by_name[stage]["duration_s"] >= 0.0
        assert fast_path_enabled() is True

    def test_pool_worker_ships_profile_when_asked(self):
        """``profile_hz`` in the task context arms the worker's sampler and
        the capture rides home in the task result."""
        async_result = submit_scenario("wan-grid-3x2", processes=1,
                                       profile_hz=1000)
        result = async_result.get(timeout=180)
        assert result.record.ok, result.record.error
        profile = result.profile
        assert isinstance(profile, dict)
        assert set(profile) == {"stacks", "samples"}
        assert profile["samples"] == sum(profile["stacks"].values())
        assert profile["samples"] > 0, "no samples from a CPU-bound run"
        assert any("repro." in joined for joined in profile["stacks"])

    def test_traced_parallel_sweep_stamps_every_worker_span(self, tmp_path):
        """Regression: a ``jobs=2`` sweep's worker spans reach the span log
        through the task result, pid-stamped, so the Perfetto export shows
        the workers as process tracks of their own."""
        log = str(tmp_path / "spans.jsonl")
        TRACER.configure(sample_rate=1.0, log_path=log)
        respawn_pool("test-fresh-workers")     # fork with the log path set
        with TRACER.start_trace("cli.sweep"):
            result = run_sweep(["ring-4", "star-hub-8"], jobs=2,
                               cache_dir=str(tmp_path / "cache"), rerun=True)
        assert all(record.ok for record in result.records)
        spans = load_span_log(log)
        worker_spans = [s for s in spans if s["name"] != "cli.sweep"]
        assert {s["name"] for s in worker_spans} >= \
            {"sweep.run_scenario", "pipeline.map"}
        pids = {s["attrs"].get("pid") for s in worker_spans}
        assert None not in pids and os.getpid() not in pids
        tracks = {e["pid"] for e in chrome_trace(spans)["traceEvents"]
                  if e["ph"] == "X"}
        assert len(tracks) > 1
