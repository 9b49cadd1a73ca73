"""Metrics history: a fixed-size ring of registry snapshots with windows.

``/metrics`` answers "what is the value *now*"; :class:`MetricsHistory`
answers "what happened over the last N seconds" without an external
time-series database.  A daemon thread snapshots the shared
:class:`~repro.obs.metrics.MetricsRegistry` every ``interval_s`` into a
``deque(maxlen=capacity)`` — memory is bounded by the ring size no
matter how long the process runs or how big the store grows.  Under
serve it is the only periodic telemetry thread: each snapshot evaluates
the runtime callback gauges (RSS, CPU, fds, GC, loop lag) of
:mod:`repro.obs.runtime`, which keeps no thread of its own.

:meth:`MetricsHistory.window` derives rates and quantiles from the raw
snapshots:

* **counters** → per-window delta and ``rate_per_s`` (monotonic-clock
  denominator, so wall-clock jumps cannot fake a rate);
* **gauges** → last/min/max over the window;
* **histograms** → observation rate plus p50/p95/p99 estimated from the
  window's *bucket deltas* (the cumulative-bucket math Prometheus'
  ``histogram_quantile`` does server-side).

Series keys are ``name`` or ``name{label=value,...}`` with labels sorted
by name, so the same series always folds into the same key.  The serve
layer exposes this as ``GET /metrics/history?window=&names=``, the SLO
engine grades burn rates over it, and every flight-recorder bundle
embeds a window of it.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Callable, Dict, List, Optional, Sequence

from .logs import get_logger, kv
from .metrics import REGISTRY, MetricsRegistry

_LOG = get_logger("obs.history")

__all__ = ["MetricsHistory", "percentile_from_buckets"]

#: Default ring: 360 snapshots x 5 s = a 30-minute window.
DEFAULT_CAPACITY = 360
DEFAULT_INTERVAL_S = 5.0
#: The trailing window ``GET /metrics/history`` serves by default, and the
#: window :class:`~repro.obs.slo.SLOEngine` grades burn rates over.
DEFAULT_WINDOW_S = 300.0
#: ``window()`` returns at most this many series unless filtered by name
#: — the endpoint's response size stays bounded even against a registry
#: with unbounded label cardinality.
MAX_SERIES = 64


def series_key(name: str, labels: Dict[str, str]) -> str:
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


def base_name(key: str) -> str:
    return key.split("{", 1)[0]


def percentile_from_buckets(buckets: Dict[str, int],
                            q: float) -> Optional[float]:
    """Estimate the q-quantile from *delta* cumulative bucket counts.

    ``buckets`` maps formatted upper bounds (``"0.05"``, ``"+Inf"``) to
    cumulative counts over the window.  Returns the upper bound of the
    first bucket whose cumulative count reaches ``q * total`` — ``None``
    when the window saw no observations or the quantile falls in +Inf
    (no finite upper bound to report).
    """
    finite = sorted(
        ((float(bound), count) for bound, count in buckets.items()
         if bound != "+Inf"), key=lambda item: item[0])
    total = buckets.get("+Inf", finite[-1][1] if finite else 0)
    if total <= 0:
        return None
    threshold = q * total
    for bound, cumulative in finite:
        if cumulative >= threshold:
            return bound
    return None


class MetricsHistory:
    """The bounded snapshot ring (see the module docstring)."""

    def __init__(self, registry: MetricsRegistry = REGISTRY,
                 capacity: int = DEFAULT_CAPACITY,
                 interval_s: float = DEFAULT_INTERVAL_S,
                 on_snapshot: Optional[Callable[[], None]] = None) -> None:
        self._registry = registry
        self._lock = threading.Lock()
        self._ring: "deque[Dict[str, object]]" = deque(
            maxlen=max(2, int(capacity)))
        self._types: Dict[str, str] = {}
        self._generation = 0
        self._stop_event: Optional[threading.Event] = None
        self._thread: Optional[threading.Thread] = None
        self.capacity = max(2, int(capacity))
        self.interval_s = float(interval_s)
        self.on_snapshot = on_snapshot
        self.snap_errors = 0

    # -- snapshotting --------------------------------------------------------

    def snap(self, ts: Optional[float] = None,
             mono: Optional[float] = None) -> Dict[str, object]:
        """Take one snapshot now (clock overrides are test hooks)."""
        snapshot = self._registry.snapshot()
        values: Dict[str, Optional[float]] = {}
        hists: Dict[str, Dict[str, object]] = {}
        for name, doc in snapshot.items():
            kind = doc.get("type", "gauge")
            self._types[name] = kind
            for series in doc.get("series", ()):
                key = series_key(name, series.get("labels", {}))
                if kind == "histogram":
                    hists[key] = {"count": series.get("count", 0),
                                  "sum": series.get("sum", 0.0),
                                  "buckets": dict(series.get("buckets", {}))}
                else:
                    values[key] = series.get("value")
        entry = {
            "ts": time.time() if ts is None else ts,
            "mono": time.monotonic() if mono is None else mono,
            "values": values,
            "hists": hists,
        }
        with self._lock:
            self._ring.append(entry)
        if self.on_snapshot is not None:
            try:
                self.on_snapshot()
            except Exception as exc:   # noqa: BLE001 — a broken breach
                # hook must not stop history collection.
                self.snap_errors += 1
                _LOG.warning("event=history_hook_failed %s",
                             kv(error=type(exc).__name__))
        return entry

    def _loop(self, generation: int, stop: threading.Event) -> None:
        while not stop.wait(self.interval_s):
            with self._lock:
                if generation != self._generation:
                    return
            try:
                self.snap()
            except Exception as exc:   # noqa: BLE001 — keep the ring
                # alive through a single bad scrape.
                self.snap_errors += 1
                _LOG.warning("event=history_snap_failed %s",
                             kv(error=type(exc).__name__))

    def start(self) -> None:
        """Start the snapshot thread; idempotent."""
        with self._lock:
            if self._thread is not None and self._thread.is_alive():
                return
            self._generation += 1
            stop = threading.Event()
            thread = threading.Thread(
                target=self._loop, args=(self._generation, stop),
                name="repro-metrics-history", daemon=True)
            self._stop_event = stop
            self._thread = thread
        self.snap()
        thread.start()

    def stop(self) -> None:
        thread = None
        with self._lock:
            self._generation += 1
            if self._stop_event is not None:
                self._stop_event.set()
                thread = self._thread
            self._stop_event = None
            self._thread = None
        if thread is not None:
            thread.join(timeout=1.0)

    def __len__(self) -> int:
        with self._lock:
            return len(self._ring)

    # -- windows -------------------------------------------------------------

    def entry_before(self, seconds: float, now: Optional[float] = None
                     ) -> Optional[Dict[str, object]]:
        """The newest snapshot at least ``seconds`` old, else the oldest
        held one (``None`` when empty); ``now`` overrides the clock."""
        now = time.monotonic() if now is None else now
        with self._lock:
            for entry in reversed(self._ring):
                if now - entry["mono"] >= seconds:
                    return entry
            return self._ring[0] if self._ring else None

    def window(self, seconds: float,
               names: Optional[Sequence[str]] = None) -> Dict[str, object]:
        """Derive rates/quantiles over the trailing ``seconds`` (see the
        module docstring for the per-kind semantics)."""
        with self._lock:
            entries = list(self._ring)
        if not entries:
            return {"window_s": seconds, "interval_s": self.interval_s,
                    "snapshots": 0, "from_ts": None, "to_ts": None,
                    "series": {}}
        horizon = entries[-1]["mono"] - float(seconds)
        entries = [e for e in entries if e["mono"] >= horizon]
        span = entries[-1]["mono"] - entries[0]["mono"]

        keys: List[str] = []
        seen = set()
        for entry in entries:
            for key in list(entry["values"]) + list(entry["hists"]):
                if key not in seen:
                    seen.add(key)
                    keys.append(key)
        if names:
            prefixes = tuple(names)
            keys = [k for k in keys
                    if any(k == p or k.startswith(p + "{")
                           for p in prefixes)]
        truncated = max(0, len(keys) - MAX_SERIES)
        keys = keys[:MAX_SERIES]

        series: Dict[str, Dict[str, object]] = {}
        for key in keys:
            kind = self._types.get(base_name(key), "gauge")
            if kind == "histogram":
                series[key] = self._hist_series(key, entries, span)
            else:
                series[key] = self._scalar_series(key, kind, entries, span)
        doc: Dict[str, object] = {
            "window_s": float(seconds),
            "interval_s": self.interval_s,
            "snapshots": len(entries),
            "from_ts": entries[0]["ts"],
            "to_ts": entries[-1]["ts"],
            "series": series,
        }
        if truncated:
            doc["truncated_series"] = truncated
        return doc

    @staticmethod
    def _scalar_series(key: str, kind: str, entries, span: float
                       ) -> Dict[str, object]:
        points = [[e["ts"], e["values"][key]] for e in entries
                  if key in e["values"]]
        present = [p[1] for p in points if p[1] is not None]
        doc: Dict[str, object] = {"type": kind, "points": points}
        if not present:
            return doc
        if kind == "counter":
            delta = present[-1] - present[0]
            doc["delta"] = delta
            doc["rate_per_s"] = (delta / span) if span > 0 else None
        else:
            doc["last"] = present[-1]
            doc["min"] = min(present)
            doc["max"] = max(present)
        return doc

    @staticmethod
    def _hist_series(key: str, entries, span: float) -> Dict[str, object]:
        snaps = [(e["ts"], e["hists"][key]) for e in entries
                 if key in e["hists"]]
        doc: Dict[str, object] = {
            "type": "histogram",
            "points": [[ts, h["count"], h["sum"]] for ts, h in snaps],
        }
        if len(snaps) < 1:
            return doc
        first, last = snaps[0][1], snaps[-1][1]
        count_delta = last["count"] - first["count"]
        doc["count_delta"] = count_delta
        doc["rate_per_s"] = (count_delta / span) if span > 0 else None
        delta_buckets = {
            bound: last["buckets"].get(bound, 0)
            - first["buckets"].get(bound, 0)
            for bound in last["buckets"]}
        for label, q in (("p50", 0.50), ("p95", 0.95), ("p99", 0.99)):
            doc[label] = percentile_from_buckets(delta_buckets, q)
        return doc
