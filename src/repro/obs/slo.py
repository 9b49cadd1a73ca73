"""Declarative SLOs over the metrics registry, with burn-rate verdicts.

An :class:`SLO` states an objective — "99% of HTTP requests complete
within 500 ms", "99.9% of responses are not 5xx" — and this module grades
it against live telemetry:

* **latency** objectives read a histogram's cumulative buckets out of
  :meth:`~repro.obs.metrics.MetricsRegistry.snapshot`: the *good* count is
  the cumulative count at the largest bucket bound ≤ the threshold (the
  conservative reading — events between the chosen bound and the
  threshold count as bad).
* **availability** objectives read labelled counters, splitting series
  into good/bad by label prefix (``code="5xx"`` → bad).

Each :meth:`~SLOEngine.evaluate` also grades the **window** of the
trailing :data:`~repro.obs.history.DEFAULT_WINDOW_S` seconds — live
tallies minus those of the newest metrics-history snapshot at least that
old, or of the oldest held one — and computes its **burn rate**: the bad
fraction divided by the error budget (``1 − target``).  The engine keeps
no window state, so ``/slo`` pollers never shrink each other's windows.
Burn rate 1.0 spends the budget exactly at the objective's boundary;
above 1.0 the budget is burning faster than it regenerates.  Verdicts
are machine-readable: ``ok`` / ``at_risk``
(cumulative compliance still holds but the current window burns > 1×) /
``breach`` / ``no_data``.

:func:`evaluate_spans` grades the same objectives against a span set
instead (``span_op`` naming the op) — how ``repro obs report`` issues
verdicts from a span log offline, with no registry in sight.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .history import DEFAULT_WINDOW_S, MetricsHistory, series_key
from .metrics import REGISTRY, MetricsRegistry

__all__ = ["SLO", "SLOEngine", "DEFAULT_SLOS", "evaluate_spans"]

_STATUS_RANK = {"no_data": 0, "ok": 1, "at_risk": 2, "breach": 3}


@dataclass(frozen=True)
class SLO:
    """One declarative objective (see the module docstring)."""

    name: str
    #: ``latency`` (histogram + threshold) or ``availability`` (counter +
    #: bad-label prefixes).
    kind: str = "latency"
    #: Required fraction of good events (0.99 → a 1% error budget).
    target: float = 0.99
    #: The registry metric graded (histogram for latency, counter for
    #: availability); ``None`` = span-only objective.
    metric: Optional[str] = None
    #: Subset match on series labels ({} = every series of the metric).
    labels: Mapping[str, str] = field(default_factory=dict)
    #: Latency objectives: an event is good iff it finished within this.
    threshold_s: float = 0.25
    #: Availability objectives: series whose ``bad_label`` value starts
    #: with one of these prefixes count as bad events.
    bad_label: str = "code"
    bad_prefixes: Tuple[str, ...] = ("5",)
    #: The span op :func:`evaluate_spans` grades this objective against.
    span_op: Optional[str] = None
    description: str = ""

    def objective(self) -> Dict[str, object]:
        doc: Dict[str, object] = {"kind": self.kind, "target": self.target}
        if self.kind == "latency":
            doc["threshold_s"] = self.threshold_s
        if self.metric:
            doc["metric"] = self.metric
            if self.labels:
                doc["labels"] = dict(self.labels)
        if self.span_op:
            doc["span_op"] = self.span_op
        return doc


def _series_matches(series: Mapping[str, object],
                    wanted: Mapping[str, str]) -> bool:
    labels = series.get("labels")
    if not isinstance(labels, dict):
        return not wanted
    return all(labels.get(k) == v for k, v in wanted.items())


def _live_series(snapshot: Mapping[str, object],
                 slo: SLO) -> List[Mapping[str, object]]:
    """The registry-snapshot series an objective grades."""
    doc = snapshot.get(slo.metric or "")
    kind = "histogram" if slo.kind == "latency" else "counter"
    if not isinstance(doc, dict) or doc.get("type") != kind:
        return []
    return [series for series in doc.get("series", [])
            if _series_matches(series, slo.labels)]


def _held(entry: Mapping[str, object], slo: SLO,
          series: Mapping[str, object]) -> Mapping[str, object]:
    """``series`` as the metrics-history snapshot ``entry`` held it."""
    labels = series.get("labels") or {}
    key = series_key(slo.metric or "", labels)
    if slo.kind == "latency":
        return entry["hists"].get(key, {})
    return {"labels": labels, "value": entry["values"].get(key)}


def _histogram_tally(series_docs: Sequence[Mapping[str, object]],
                     slo: SLO) -> Tuple[int, int]:
    """(total, good) events of a latency SLO over histogram series."""
    total = good = 0
    for series in series_docs:
        total += int(series.get("count", 0))
        best_bound, best_cum = -math.inf, 0
        for raw_bound, cumulative in series.get("buckets", {}).items():
            bound = math.inf if raw_bound == "+Inf" else float(raw_bound)
            if best_bound < bound <= slo.threshold_s:
                best_bound, best_cum = bound, int(cumulative)
        good += best_cum
    return total, good


def _counter_tally(series_docs: Sequence[Mapping[str, object]],
                   slo: SLO) -> Tuple[int, int]:
    """(total, good) events of an availability SLO over counter series."""
    total = good = 0
    for series in series_docs:
        value = series.get("value")
        if not isinstance(value, (int, float)) or value != value:
            continue
        labels = series.get("labels") or {}
        total += int(value)
        if not str(labels.get(slo.bad_label, "")).startswith(
                tuple(slo.bad_prefixes)):
            good += int(value)
    return total, good


def _verdict(slo: SLO, total: int, good: int,
             window: Optional[Tuple[int, int]] = None) -> Dict[str, object]:
    """Grade one objective from its (total, good) tallies."""
    budget = max(1e-9, 1.0 - slo.target)
    doc: Dict[str, object] = {
        "name": slo.name,
        "kind": slo.kind,
        "description": slo.description,
        "objective": slo.objective(),
        "total": total,
        "good": good,
    }
    if total <= 0:
        doc.update(compliance=None, burn_rate=None, budget_remaining=None,
                   status="no_data")
        return doc
    compliance = good / total
    burn = (1.0 - compliance) / budget
    doc.update(compliance=compliance, burn_rate=burn,
               budget_remaining=max(0.0, 1.0 - burn))
    status = "ok" if compliance >= slo.target else "breach"
    if window is not None:
        w_total, w_good = window
        w_burn = ((1.0 - w_good / w_total) / budget) if w_total > 0 else None
        doc["window"] = {"total": w_total, "good": w_good,
                         "burn_rate": w_burn}
        if status == "ok" and w_burn is not None and w_burn > 1.0:
            status = "at_risk"
    doc["status"] = status
    return doc


class SLOEngine:
    """Evaluates a fixed SLO set against a registry, windowed by a
    metrics history (no history: the window is everything so far)."""

    def __init__(self, slos: Optional[Sequence[SLO]] = None,
                 registry: MetricsRegistry = REGISTRY,
                 history: Optional[MetricsHistory] = None) -> None:
        self.slos: Tuple[SLO, ...] = tuple(
            slos if slos is not None else DEFAULT_SLOS)
        self.registry = registry
        self.history = history
        self._evaluations = 0

    def evaluate(self, now: Optional[float] = None) -> Dict[str, object]:
        """Grade every objective now; the machine-readable ``/slo`` body.

        ``now`` overrides the monotonic clock that picks the window's base
        snapshot (a test hook, like :meth:`MetricsHistory.snap`'s).
        """
        snapshot = self.registry.snapshot()
        base = None
        if self.history is not None:
            base = self.history.entry_before(DEFAULT_WINDOW_S, now=now)
        verdicts: List[Dict[str, object]] = []
        for slo in self.slos:
            tally = (_histogram_tally if slo.kind == "latency"
                     else _counter_tally)
            live = _live_series(snapshot, slo)
            total, good = tally(live, slo)
            window = (total, good)
            if base is not None:
                then_total, then_good = tally(
                    [_held(base, slo, series) for series in live], slo)
                # Tallies are cumulative; a shrink means the metric was
                # reset since the base snapshot: the window starts afresh.
                if total >= then_total and good >= then_good:
                    window = (total - then_total, good - then_good)
            verdicts.append(_verdict(slo, total, good, window=window))
        self._evaluations += 1
        worst = max(verdicts, default=None,
                    key=lambda v: _STATUS_RANK[v["status"]])
        return {
            "evaluated_at": time.time(),
            "evaluations": self._evaluations,
            "status": worst["status"] if verdicts else "no_data",
            "slos": verdicts,
        }


def evaluate_spans(slos: Sequence[SLO],
                   spans: Sequence[Mapping[str, object]],
                   ) -> Dict[str, object]:
    """Grade span-op objectives against a span set (offline reports).

    Latency objectives count a span good iff its duration is within the
    threshold; availability objectives count spans without an
    ``attrs["error"]`` as good.  No windows — a span log is one window.
    """
    verdicts: List[Dict[str, object]] = []
    for slo in slos:
        if not slo.span_op:
            continue
        total = good = 0
        for span in spans:
            if span.get("name") != slo.span_op:
                continue
            total += 1
            attrs = span.get("attrs")
            errored = isinstance(attrs, dict) and attrs.get("error")
            try:
                duration = float(span.get("duration_s", 0.0))
            except (TypeError, ValueError):
                duration = 0.0
            if slo.kind == "latency":
                good += int(duration <= slo.threshold_s and not errored)
            else:
                good += int(not errored)
        verdicts.append(_verdict(slo, total, good))
    worst = max(verdicts, default=None,
                key=lambda v: _STATUS_RANK[v["status"]])
    return {
        "status": worst["status"] if verdicts else "no_data",
        "slos": verdicts,
    }


#: The serving layer's default objectives — modest enough that a healthy
#: dev box passes, meaningful enough that a regression shows as a burn.
DEFAULT_SLOS: Tuple[SLO, ...] = (
    SLO(name="http-latency",
        kind="latency",
        metric="repro_http_request_seconds",
        threshold_s=0.5, target=0.99,
        span_op="serve.request",
        description="99% of HTTP requests complete within 500 ms"),
    SLO(name="http-availability",
        kind="availability",
        metric="repro_http_responses_total",
        bad_label="code", bad_prefixes=("5",),
        target=0.999,
        span_op="serve.request",
        description="99.9% of responses are not 5xx"),
    SLO(name="job-queue-wait",
        kind="latency",
        metric="repro_job_queue_wait_seconds",
        threshold_s=30.0, target=0.95,
        span_op="serve.queue_wait",
        description="95% of jobs leave the queue within 30 s"),
    SLO(name="pipeline-map",
        kind="latency",
        metric="repro_pipeline_stage_seconds",
        labels={"stage": "map"},
        threshold_s=10.0, target=0.95,
        span_op="pipeline.map",
        description="95% of mapper stages complete within 10 s"),
)
