"""Tests of the trace-analytics layer: aggregates, critical paths, SLOs.

Crafted span sets with known answers drive :mod:`repro.obs.analyze`; the
SLO engine is graded against a private :class:`MetricsRegistry` so the
burn-rate arithmetic is checked without touching the process-wide
telemetry.  The ``repro obs`` CLI is exercised end to end on a real span
log.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.obs import TRACER, MetricsRegistry
from repro.obs.analyze import (
    aggregate_ops,
    critical_path,
    diff_traces,
    percentile,
    self_times,
)
from repro.obs.history import DEFAULT_WINDOW_S, MetricsHistory
from repro.obs.slo import SLO, DEFAULT_SLOS, SLOEngine, evaluate_spans


@pytest.fixture(autouse=True)
def _tracer_isolation():
    TRACER.reset()
    yield
    TRACER.reset()


def _span(name, span_id, parent_id=None, start=0.0, dur=0.1, trace="t1",
          **attrs):
    return {"trace_id": trace, "span_id": span_id, "parent_id": parent_id,
            "name": name, "start_ts": 100.0 + start, "duration_s": dur,
            "attrs": attrs}


#: One trace with a known structure: the root waits on map then plan;
#: plan finishes last (the waited-on child) even though map is longer.
TRACE = [
    _span("root", "r", start=0.0, dur=1.0),
    _span("map", "m", parent_id="r", start=0.1, dur=0.5),
    _span("map.inner", "mi", parent_id="m", start=0.2, dur=0.3),
    _span("plan", "p", parent_id="r", start=0.7, dur=0.2,
          error="boom"),
]


class TestPercentile:
    def test_interpolates_between_ranks(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 0.5) == 2.5
        assert percentile(values, 0.0) == 1.0
        assert percentile(values, 1.0) == 4.0

    def test_degenerate_inputs(self):
        assert percentile([], 0.5) == 0.0
        assert percentile([7.0], 0.99) == 7.0


class TestAggregateOps:
    def test_self_time_subtracts_children(self):
        selfs = self_times(TRACE)
        assert selfs["r"] == pytest.approx(1.0 - 0.5 - 0.2)
        assert selfs["m"] == pytest.approx(0.5 - 0.3)
        assert selfs["mi"] == pytest.approx(0.3)

    def test_overlapping_children_clamp_at_zero(self):
        spans = [_span("root", "r", dur=0.1),
                 _span("a", "a", parent_id="r", dur=0.09),
                 _span("b", "b", parent_id="r", dur=0.09)]
        assert self_times(spans)["r"] == 0.0

    def test_rows_sorted_by_total_with_errors_counted(self):
        rows = aggregate_ops(TRACE)
        assert [row["op"] for row in rows] == ["root", "map", "map.inner",
                                               "plan"]
        by_op = {row["op"]: row for row in rows}
        assert by_op["plan"]["errors"] == 1
        assert by_op["map"]["errors"] == 0
        assert by_op["root"]["self_s"] == pytest.approx(0.3)
        assert by_op["map"]["p50_s"] == pytest.approx(0.5)
        assert by_op["map"]["max_s"] == pytest.approx(0.5)

    def test_malformed_durations_count_as_zero(self):
        rows = aggregate_ops([dict(_span("x", "x"), duration_s="soon"),
                              dict(_span("x", "x2"), duration_s=-5)])
        assert rows[0]["total_s"] == 0.0
        assert rows[0]["count"] == 2


class TestCriticalPath:
    def test_descends_into_the_child_that_finishes_last(self):
        path = critical_path(TRACE)
        # plan ends at 0.9, map at 0.6: the root waited on plan, so the
        # longer map branch is *not* on the critical path.
        assert [step["name"] for step in path] == ["root", "plan"]
        assert path[0]["self_s"] == pytest.approx(1.0 - 0.2)
        assert path[1]["self_s"] == pytest.approx(0.2)
        assert [step["depth"] for step in path] == [0, 1]

    def test_filters_by_trace_id(self):
        other = [_span("other", "o", trace="t2", dur=9.0)]
        path = critical_path(TRACE + other, trace_id="t1")
        assert path[0]["name"] == "root"
        assert critical_path(TRACE + other, trace_id="t2")[0]["name"] == \
            "other"
        assert critical_path([], trace_id="t1") == []

    def test_cyclic_parent_links_terminate(self):
        spans = [_span("a", "a", parent_id="b", dur=1.0),
                 _span("b", "b", parent_id="a", dur=0.5)]
        path = critical_path(spans)
        assert 1 <= len(path) <= 2          # never an infinite loop


class TestDiffTraces:
    def test_attributes_delta_to_the_op_that_slowed(self):
        before = [_span("root", "r", dur=1.0),
                  _span("map", "m", parent_id="r", dur=0.5)]
        after = [_span("root", "r", dur=1.6),
                 _span("map", "m", parent_id="r", dur=1.1)]
        rows = diff_traces(before, after)
        top = rows[0]
        assert top["op"] in ("map", "root")
        by_op = {row["op"]: row for row in rows}
        assert by_op["map"]["delta_s"] == pytest.approx(0.6)
        # root's *self* time did not move — the regression is map's.
        assert by_op["root"]["delta_self_s"] == pytest.approx(0.0)
        assert by_op["map"]["delta_self_s"] == pytest.approx(0.6)

    def test_ops_missing_on_either_side(self):
        rows = diff_traces([_span("gone", "g", dur=0.4)],
                           [_span("new", "n", dur=0.2)])
        by_op = {row["op"]: row for row in rows}
        assert by_op["gone"]["delta_s"] == pytest.approx(-0.4)
        assert by_op["gone"]["after_count"] == 0
        assert by_op["new"]["delta_s"] == pytest.approx(0.2)
        assert by_op["new"]["before_count"] == 0


class TestSLOEngine:
    def _registry_with_requests(self, good, slow):
        registry = MetricsRegistry()
        hist = registry.histogram("repro_http_request_seconds", "t",
                                  labels=("route",))
        for _ in range(good):
            hist.labels(route="/x").observe(0.01)
        for _ in range(slow):
            hist.labels(route="/x").observe(5.0)
        return registry

    def _slo(self, **overrides):
        base = dict(name="http-latency", kind="latency",
                    metric="repro_http_request_seconds",
                    threshold_s=0.5, target=0.99)
        base.update(overrides)
        return SLO(**base)

    def test_ok_within_budget(self):
        engine = SLOEngine(slos=[self._slo()],
                           registry=self._registry_with_requests(1000, 0))
        report = engine.evaluate()
        verdict = report["slos"][0]
        assert report["status"] == "ok"
        assert verdict["compliance"] == pytest.approx(1.0)
        assert verdict["burn_rate"] == pytest.approx(0.0)

    def test_breach_past_budget(self):
        engine = SLOEngine(slos=[self._slo()],
                           registry=self._registry_with_requests(98, 2))
        verdict = engine.evaluate()["slos"][0]
        assert verdict["status"] == "breach"
        assert verdict["compliance"] == pytest.approx(0.98)
        assert verdict["burn_rate"] == pytest.approx(2.0)
        assert verdict["budget_remaining"] == 0.0

    def test_at_risk_when_the_window_burns_hot(self):
        registry = self._registry_with_requests(10_000, 0)
        history = MetricsHistory(registry=registry)
        engine = SLOEngine(slos=[self._slo()], registry=registry,
                           history=history)
        history.snap(mono=0.0)
        assert engine.evaluate(now=0.0)["status"] == "ok"
        hist = registry.histogram("repro_http_request_seconds", "t",
                                  labels=("route",))
        for _ in range(50):
            hist.labels(route="/x").observe(5.0)    # a hot window
        history.snap(mono=200.0)
        # The base is the newest snapshot at least DEFAULT_WINDOW_S old.
        verdict = engine.evaluate(now=DEFAULT_WINDOW_S)["slos"][0]
        # Cumulative compliance still clears 0.99, but the window burns.
        assert verdict["status"] == "at_risk"
        assert verdict["window"]["burn_rate"] > 1.0
        assert verdict["window"]["total"] == 50
        # Once the burst is older than the window, it stops burning.
        later = engine.evaluate(now=200.0 + DEFAULT_WINDOW_S)["slos"][0]
        assert later["status"] == "ok"
        assert later["window"]["total"] == 0

    def test_polls_do_not_shrink_each_others_windows(self):
        registry = self._registry_with_requests(90, 10)
        history = MetricsHistory(registry=registry)
        history.snap(mono=0.0)
        engine = SLOEngine(slos=[self._slo()], registry=registry,
                           history=history)
        first = engine.evaluate(now=10.0)["slos"][0]["window"]
        engine.evaluate(now=10.0)                  # another /slo poller
        second = engine.evaluate(now=10.0)["slos"][0]["window"]
        assert first == second
        assert first["total"] == 0                 # nothing since the base

    def test_no_data_without_observations(self):
        engine = SLOEngine(slos=[self._slo()],
                           registry=MetricsRegistry())
        report = engine.evaluate()
        assert report["status"] == "no_data"
        assert report["slos"][0]["compliance"] is None

    def test_availability_splits_series_by_code_prefix(self):
        registry = MetricsRegistry()
        counter = registry.counter("repro_http_responses_total", "t",
                                   labels=("code",))
        counter.labels(code="2xx").inc(995)
        counter.labels(code="5xx").inc(5)
        slo = SLO(name="avail", kind="availability",
                  metric="repro_http_responses_total", target=0.999)
        verdict = SLOEngine(slos=[slo], registry=registry) \
            .evaluate()["slos"][0]
        assert verdict["status"] == "breach"
        assert verdict["compliance"] == pytest.approx(0.995)

    def test_metric_reset_starts_a_fresh_window(self):
        registry = self._registry_with_requests(100, 0)
        history = MetricsHistory(registry=registry)
        history.snap(mono=0.0)
        engine = SLOEngine(slos=[self._slo()], registry=registry,
                           history=history)
        engine.evaluate(now=0.0)
        # A reset: the registry zeroed, then fewer observations than the
        # window's base snapshot holds.
        registry.zero()
        hist = registry.histogram("repro_http_request_seconds", "t",
                                  labels=("route",))
        for _ in range(10):
            hist.labels(route="/x").observe(0.01)
        verdict = engine.evaluate(now=DEFAULT_WINDOW_S)["slos"][0]
        assert verdict["window"]["total"] == 10   # not negative


class TestEvaluateSpans:
    def test_latency_objective_counts_slow_and_errored_spans_bad(self):
        slo = SLO(name="map", kind="latency", threshold_s=0.4, target=0.5,
                  span_op="map")
        spans = [_span("map", "a", dur=0.1),
                 _span("map", "b", dur=0.9),              # slow
                 _span("map", "c", dur=0.1, error="x"),   # errored
                 _span("other", "d", dur=9.0)]            # wrong op
        report = evaluate_spans([slo], spans)
        verdict = report["slos"][0]
        assert verdict["total"] == 3
        assert verdict["good"] == 1
        assert verdict["status"] == "breach"

    def test_default_slos_grade_their_span_ops(self):
        spans = [_span("pipeline.map", "a", dur=0.5)]
        report = evaluate_spans(DEFAULT_SLOS, spans)
        by_name = {v["name"]: v for v in report["slos"]}
        assert by_name["pipeline-map"]["status"] == "ok"
        assert by_name["http-latency"]["status"] == "no_data"
        assert report["status"] == "ok"       # worst of ok/no_data is ok


class TestObsCli:
    def _write_log(self, tmp_path, spans):
        log = tmp_path / "spans.jsonl"
        log.write_text("".join(json.dumps(s) + "\n" for s in spans))
        return str(log)

    def test_report_renders_ops_path_and_slos(self, tmp_path, capsys):
        log = self._write_log(tmp_path, TRACE)
        assert main(["obs", "report", log]) == 0
        out = capsys.readouterr().out
        assert "per-op latency" in out
        assert "map.inner" in out
        assert "critical path of trace t1" in out
        assert "plan" in out
        assert "SLO verdicts" in out

    def test_report_custom_slo_breach_exits_nonzero(self, tmp_path, capsys):
        log = self._write_log(tmp_path, TRACE)
        assert main(["obs", "report", log, "--slo", "map:100"]) == 1
        captured = capsys.readouterr()
        assert "map-latency" in captured.out
        assert "breach" in captured.out
        assert "SLO breach" in captured.err
        # A generous threshold passes.
        assert main(["obs", "report", log, "--slo", "map:10000:0.5"]) == 0

    def test_report_json_format_is_machine_readable(self, tmp_path, capsys):
        log = self._write_log(tmp_path, TRACE)
        assert main(["obs", "report", log, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["spans"] == len(TRACE)
        assert payload["ops"][0]["op"] == "root"
        assert [s["name"] for s in payload["critical_paths"]["t1"]] == \
            ["root", "plan"]
        assert payload["slo"]["status"] in ("ok", "no_data")

    def test_report_missing_log_diagnoses_and_exits_1(self, tmp_path,
                                                      capsys):
        assert main(["obs", "report", str(tmp_path / "absent.jsonl")]) == 1
        assert "cannot read span log" in capsys.readouterr().err

    def test_bad_slo_specs_are_rejected(self, tmp_path, capsys):
        log = self._write_log(tmp_path, TRACE)
        for spec in ("map", "map:0", "map:100:2.0", ":100"):
            assert main(["obs", "report", log, "--slo", spec]) == 2
            assert "bad --slo spec" in capsys.readouterr().err

    def test_diff_command_attributes_the_regression(self, tmp_path, capsys):
        before = self._write_log(tmp_path, TRACE)
        after_spans = [dict(s) for s in TRACE]
        after_spans[1]["duration_s"] = 2.0        # map got 4× slower
        after = tmp_path / "after.jsonl"
        after.write_text("".join(json.dumps(s) + "\n" for s in after_spans))
        assert main(["obs", "diff", before, str(after)]) == 0
        out = capsys.readouterr().out
        first_row = out.splitlines()[3]           # header, rule, then rows
        assert first_row.startswith("map")
        assert "+1500.0ms" in first_row

    def test_obs_report_on_a_real_sweep_span_log(self, tmp_path, capsys):
        """Acceptance: a real traced run's span log yields a populated
        report — per-op quantiles and a critical path."""
        log = str(tmp_path / "sweep.jsonl")
        assert main(["plan", "--trace-sample", "1.0",
                     "--trace-log", log]) == 0
        capsys.readouterr()
        assert main(["obs", "report", log]) == 0
        out = capsys.readouterr().out
        assert "cli.plan" in out
        assert "env.refine" in out
        assert "critical path" in out
