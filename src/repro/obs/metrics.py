"""Metrics: counters, gauges and fixed-bucket histograms, Prometheus-ready.

:class:`MetricsRegistry` holds the three metric kinds a scrape-based
monitoring stack expects:

* **counters** — monotonically increasing totals, either stored
  (:meth:`Metric.inc`, or a bare increment of the raw series — how the
  :mod:`repro.perf` hot-loop work counters stay lock-free) or
  *callback-backed* (a zero-argument function read at scrape time, such
  as ``process_cpu_seconds_total``);
* **gauges** — point-in-time values (job queue depth, store bytes),
  stored or callback-backed;
* **histograms** — fixed cumulative buckets plus sum/count, for latency
  and duration distributions (HTTP request latency per route, pipeline
  stage durations, job queue wait).

Metrics may declare label names; :meth:`Metric.labels` resolves one
labelled series (created on first use).  The registry renders both a
JSON snapshot (the ``/metrics`` document) and the Prometheus text
exposition format (``/metrics?format=prometheus``).

Stored counter and histogram series cross process boundaries as a
:meth:`MetricsRegistry.delta` that the submitter of a pool task
:meth:`MetricsRegistry.merge`-s; gauges and callback series never travel.

Registration is get-or-create: re-registering a name returns the existing
metric (re-binding the callback if a new one is given), so modules and
short-lived app instances can declare their metrics idempotently against
the process-wide :data:`REGISTRY`.
"""

from __future__ import annotations

import math
import threading
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..ioutils import fresh_lock_after_fork

__all__ = ["Metric", "MetricsRegistry", "REGISTRY", "DEFAULT_BUCKETS"]

#: Default histogram buckets (seconds) — Prometheus' classic latency
#: ladder, covering sub-millisecond cache hits to multi-second pipelines.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 30.0)

KINDS = ("counter", "gauge", "histogram")


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label(text: str) -> str:
    return (text.replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


class _Series:
    """One labelled series of a metric (the unlabelled one included)."""

    __slots__ = ("labels", "value", "fn", "bucket_counts", "sum", "count")

    def __init__(self, labels: Tuple[str, ...], n_buckets: int) -> None:
        self.labels = labels
        self.value = 0.0
        self.fn: Optional[Callable[[], float]] = None
        self.bucket_counts = [0] * (n_buckets + 1)   # +1: the +Inf bucket
        self.sum = 0.0
        self.count = 0


class Metric:
    """One named metric; series-level operations live here."""

    def __init__(self, registry: "MetricsRegistry", name: str, kind: str,
                 help: str, label_names: Tuple[str, ...],
                 buckets: Tuple[float, ...]) -> None:
        self.registry = registry
        self.name = name
        self.kind = kind
        self.help = help
        self.label_names = label_names
        self.buckets = buckets
        self._series: Dict[Tuple[str, ...], _Series] = {}
        self._labelled = bool(label_names)

    # -- series resolution ---------------------------------------------------

    def labels(self, **labels: str) -> "_BoundSeries":
        """The series for one label-value combination (created on demand)."""
        if tuple(sorted(labels)) != tuple(sorted(self.label_names)):
            raise ValueError(f"metric {self.name!r} takes labels "
                             f"{self.label_names}, got {tuple(labels)}")
        key = tuple(str(labels[name]) for name in self.label_names)
        return _BoundSeries(self, self._resolve(key))

    def _resolve(self, key: Tuple[str, ...]) -> _Series:
        with self.registry._lock:
            series = self._series.get(key)
            if series is None:
                series = _Series(key, len(self.buckets))
                self._series[key] = series
            return series

    def _default_series(self) -> _Series:
        if self._labelled:
            raise ValueError(f"metric {self.name!r} is labelled; "
                             f"use .labels(...)")
        return self._resolve(())

    # -- unlabelled conveniences ---------------------------------------------

    def inc(self, amount: float = 1.0) -> None:
        _BoundSeries(self, self._default_series()).inc(amount)

    def set(self, value: float) -> None:
        _BoundSeries(self, self._default_series()).set(value)

    def observe(self, value: float) -> None:
        _BoundSeries(self, self._default_series()).observe(value)

    def set_callback(self, fn: Callable[[], float]) -> None:
        _BoundSeries(self, self._default_series()).set_callback(fn)


class _BoundSeries:
    """A metric bound to one series — the object call sites hold on to."""

    __slots__ = ("metric", "series")

    def __init__(self, metric: Metric, series: _Series) -> None:
        self.metric = metric
        self.series = series

    def inc(self, amount: float = 1.0) -> None:
        if self.metric.kind not in ("counter", "gauge"):
            raise ValueError(f"cannot inc() a {self.metric.kind}")
        if self.metric.kind == "counter" and amount < 0:
            raise ValueError("counters only go up")
        with self.metric.registry._lock:
            self.series.value += amount

    def set(self, value: float) -> None:
        if self.metric.kind != "gauge":
            raise ValueError(f"cannot set() a {self.metric.kind}")
        with self.metric.registry._lock:
            self.series.value = float(value)

    def set_callback(self, fn: Callable[[], float]) -> None:
        if self.metric.kind == "histogram":
            raise ValueError("histograms cannot be callback-backed")
        with self.metric.registry._lock:
            self.series.fn = fn

    def observe(self, value: float) -> None:
        if self.metric.kind != "histogram":
            raise ValueError(f"cannot observe() a {self.metric.kind}")
        buckets = self.metric.buckets
        index = len(buckets)
        for i, bound in enumerate(buckets):
            if value <= bound:
                index = i
                break
        with self.metric.registry._lock:
            self.series.bucket_counts[index] += 1
            self.series.sum += value
            self.series.count += 1


class MetricsRegistry:
    """A process-wide collection of metrics with two render targets."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: Dict[str, Metric] = {}

    # -- registration (get-or-create) ----------------------------------------

    def _register(self, name: str, kind: str, help: str,
                  labels: Sequence[str],
                  buckets: Sequence[float],
                  fn: Optional[Callable[[], float]]) -> Metric:
        with self._lock:
            metric = self._metrics.get(name)
            if metric is not None:
                if metric.kind != kind:
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{metric.kind}, not {kind}")
            else:
                metric = Metric(self, name, kind, help, tuple(labels),
                                tuple(buckets))
                self._metrics[name] = metric
        if fn is not None:
            metric.set_callback(fn)
        return metric

    def counter(self, name: str, help: str = "", labels: Sequence[str] = (),
                fn: Optional[Callable[[], float]] = None) -> Metric:
        return self._register(name, "counter", help, labels, (), fn)

    def gauge(self, name: str, help: str = "", labels: Sequence[str] = (),
              fn: Optional[Callable[[], float]] = None) -> Metric:
        return self._register(name, "gauge", help, labels, (), fn)

    def histogram(self, name: str, help: str = "",
                  labels: Sequence[str] = (),
                  buckets: Sequence[float] = DEFAULT_BUCKETS) -> Metric:
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("a histogram needs at least one bucket")
        return self._register(name, "histogram", help, labels, bounds, None)

    def zero(self) -> None:
        """Zero every series in place, keeping registrations and callbacks.

        Handles held by call sites (module-level counters, bound series,
        the :mod:`repro.perf` work counters) stay live — test hook for
        isolating accumulated values without re-registering instruments.
        """
        with self._lock:
            for metric in self._metrics.values():
                for series in metric._series.values():
                    series.value = 0.0
                    series.bucket_counts = [0] * len(series.bucket_counts)
                    series.sum = 0.0
                    series.count = 0

    def value(self, name: str, **labels: str) -> Optional[float]:
        """The current value of one counter/gauge series, or ``None``.

        Resolves *existing* series only — asking for a series that was
        never touched returns ``None`` instead of materialising it (tests
        and health endpoints probe freely without polluting ``/metrics``).
        Callback-backed series are evaluated.
        """
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None or metric.kind == "histogram":
                return None
            key = tuple(str(labels.get(n, "")) for n in metric.label_names)
            series = metric._series.get(key)
            if series is None:
                return None
            fn, stored = series.fn, series.value
        if fn is not None:
            try:
                return float(fn())
            except Exception:   # noqa: BLE001 — mirror _collect's tolerance
                return None
        return stored

    def counts(self, series: Mapping[str, _Series]) -> Dict[str, int]:
        """Several stored counter series as ints, read under one lock hold
        (so a concurrent :meth:`merge` or :meth:`zero` shows whole or not
        at all)."""
        with self._lock:
            return {name: int(one.value) for name, one in series.items()}

    # -- cross-process deltas ------------------------------------------------

    def stored(self) -> Dict[Tuple[str, Tuple[str, ...]], Tuple]:
        """Every stored counter/histogram series as ``(value, count, sum,
        *bucket counts)`` by ``(name, label values)``: a :meth:`delta` base."""
        with self._lock:
            return {(metric.name, key): (series.value, series.count,
                                         series.sum, *series.bucket_counts)
                    for metric in self._metrics.values()
                    if metric.kind != "gauge"
                    for key, series in metric._series.items()
                    if series.fn is None}

    def delta(self, base: Dict[Tuple[str, Tuple[str, ...]], Tuple]
              ) -> List[Tuple]:
        """The stored series that changed since ``base``, as pickle-safe
        ``(name, kind, help, label names, buckets, label values, change)``
        rows :meth:`merge` can fold into another process' registry."""
        rows: List[Tuple] = []
        for (name, key), state in self.stored().items():
            old = base.get((name, key), (0,) * len(state))
            change = tuple(now - then for now, then in zip(state, old))
            if any(change):
                metric = self._metrics[name]
                rows.append((name, metric.kind, metric.help,
                             metric.label_names, metric.buckets, key, change))
        return rows

    def merge(self, delta: Sequence[Tuple]) -> None:
        """Fold a :meth:`delta` in, get-or-creating its series; every change
        lands under one lock hold, so :meth:`counts` sees all of it or none."""
        targets = [(self._register(name, kind, help, labels, buckets, None)
                    ._resolve(key), change)
                   for name, kind, help, labels, buckets, key, change in delta]
        with self._lock:
            for series, (value, count, total, *buckets) in targets:
                series.value += value
                series.count += count
                series.sum += total
                series.bucket_counts = [
                    a + b for a, b in zip(series.bucket_counts, buckets)]

    # -- scraping ------------------------------------------------------------

    def _collect(self) -> List[Tuple[Metric, List[Tuple[Tuple[str, ...],
                                                        Dict[str, object]]]]]:
        """A consistent snapshot: (metric, [(label values, data)...])."""
        with self._lock:
            metrics = sorted(self._metrics.values(), key=lambda m: m.name)
            shells = [(m, list(m._series.items())) for m in metrics]
        collected = []
        for metric, series_items in shells:
            rows = []
            for key, series in series_items:
                if metric.kind == "histogram":
                    with self._lock:
                        data: Dict[str, object] = {
                            "buckets": list(series.bucket_counts),
                            "sum": series.sum,
                            "count": series.count,
                        }
                else:
                    # Callbacks run outside the lock: they may consult other
                    # locked subsystems (store index, job queue).
                    fn = series.fn
                    if fn is not None:
                        try:
                            value = float(fn())
                        except Exception:   # noqa: BLE001 — one broken
                            # callback must not take the whole scrape down.
                            value = float("nan")
                    else:
                        with self._lock:
                            value = series.value
                    data = {"value": value}
                rows.append((key, data))
            collected.append((metric, rows))
        return collected

    def snapshot(self) -> Dict[str, object]:
        """The registry as a JSON-serialisable document."""
        out: Dict[str, object] = {}
        for metric, rows in self._collect():
            series_docs = []
            for key, data in rows:
                doc: Dict[str, object] = {
                    "labels": dict(zip(metric.label_names, key)),
                }
                if metric.kind == "histogram":
                    counts = data["buckets"]
                    cumulative: Dict[str, int] = {}
                    running = 0
                    for bound, count in zip(metric.buckets, counts):
                        running += count
                        cumulative[_format_value(bound)] = running
                    cumulative["+Inf"] = running + counts[-1]
                    doc.update(count=data["count"], sum=data["sum"],
                               buckets=cumulative)
                else:
                    value = data["value"]
                    doc["value"] = None if value != value else value
                series_docs.append(doc)
            out[metric.name] = {"type": metric.kind, "help": metric.help,
                                "series": series_docs}
        return out

    def render_prometheus(self) -> str:
        """The Prometheus text exposition format (version 0.0.4)."""
        lines: List[str] = []
        for metric, rows in self._collect():
            if metric.help:
                lines.append(f"# HELP {metric.name} "
                             f"{_escape_help(metric.help)}")
            lines.append(f"# TYPE {metric.name} {metric.kind}")
            for key, data in rows:
                base_labels = [f'{name}="{_escape_label(value)}"'
                               for name, value in
                               zip(metric.label_names, key)]
                if metric.kind == "histogram":
                    running = 0
                    counts = data["buckets"]
                    for bound, count in zip(
                            tuple(metric.buckets) + (math.inf,), counts):
                        running += count
                        labels = base_labels + \
                            [f'le="{_format_value(bound)}"']
                        lines.append(f"{metric.name}_bucket"
                                     f"{{{','.join(labels)}}} {running}")
                    suffix = f"{{{','.join(base_labels)}}}" \
                        if base_labels else ""
                    lines.append(f"{metric.name}_sum{suffix} "
                                 f"{_format_value(data['sum'])}")
                    lines.append(f"{metric.name}_count{suffix} {running}")
                else:
                    suffix = f"{{{','.join(base_labels)}}}" \
                        if base_labels else ""
                    value = data["value"]
                    rendered = "NaN" if value != value \
                        else _format_value(value)
                    lines.append(f"{metric.name}{suffix} {rendered}")
        return "\n".join(lines) + "\n"


#: The process-wide registry every layer records into; subsystems register
#: their metrics at import / construction time.
REGISTRY = MetricsRegistry()
fresh_lock_after_fork(REGISTRY)
