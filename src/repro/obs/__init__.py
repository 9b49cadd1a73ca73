"""``repro.obs`` — tracing, metrics and structured logging (stdlib-only).

Three pillars, one import surface:

* :data:`TRACER` (:mod:`repro.obs.trace`) — span tracing with ambient
  context propagation, sampling, a bounded ring buffer and an optional
  JSONL span log; near-free when disabled.
* :data:`REGISTRY` (:mod:`repro.obs.metrics`) — counters, gauges and
  fixed-bucket histograms, rendered as JSON or Prometheus text exposition.
* :func:`setup_logging` / :func:`get_logger` (:mod:`repro.obs.logs`) —
  ``key=value`` structured logs on the stdlib :mod:`logging` package.

On top of the raw telemetry, the analysis layer:

* :data:`PROFILER` (:mod:`repro.obs.profile`) — a statistical sampling
  profiler (``SIGPROF``/``setitimer``, armed on a main thread only)
  emitting collapsed, flamegraph-compatible stacks.
* :mod:`repro.obs.analyze` — per-op latency aggregation (p50/p95/p99,
  self vs child time), critical-path extraction, trace diffing.
* :mod:`repro.obs.slo` — declarative latency/error-rate objectives with
  burn-rate computation and machine-readable verdicts.

And the runtime-telemetry layer (PR 10):

* :data:`RUNTIME` (:mod:`repro.obs.runtime`) — process gauges read on
  demand (RSS/CPU/fds/peak RSS), a GC-pause watch and an event-loop lag
  monitor, with a worker-side :func:`task_runtime` that records each pool
  task's readings into the registry delta the task ships home.  It runs
  no thread.
* :class:`MetricsHistory` (:mod:`repro.obs.history`) — a bounded ring of
  registry snapshots with windowed rate/quantile derivation
  (``GET /metrics/history``); its thread is the only periodic telemetry
  work in a serve process.
* :data:`FLIGHT` (:mod:`repro.obs.flightrec`) — the flight recorder:
  forensics bundles on SLO breach, breaker open, persist fallback,
  SIGTERM or demand.
* :mod:`repro.obs.export` — Chrome-trace/Perfetto span export.

See README.md, "Observability".
"""

from __future__ import annotations

from .analyze import aggregate_ops, critical_path, diff_traces, percentile
from .export import chrome_trace, chrome_trace_json
from .flightrec import FLIGHT, FlightRecorder
from .history import MetricsHistory, percentile_from_buckets
from .logs import get_logger, kv, setup_logging, to_json_line
from .metrics import (
    DEFAULT_BUCKETS,
    Metric,
    MetricsRegistry,
    REGISTRY,
)
from .profile import PROFILER, Profiler, collapse
from .runtime import RUNTIME, RuntimeSampler, task_runtime
from .slo import DEFAULT_SLOS, SLO, SLOEngine, evaluate_spans
from .timeline import group_traces, load_span_log, render_timeline
from .trace import NULL_SPAN, Span, TRACER, Tracer

__all__ = [
    "TRACER", "Tracer", "Span", "NULL_SPAN",
    "REGISTRY", "MetricsRegistry", "Metric", "DEFAULT_BUCKETS",
    "PROFILER", "Profiler", "collapse",
    "RUNTIME", "RuntimeSampler", "task_runtime",
    "MetricsHistory", "percentile_from_buckets",
    "FLIGHT", "FlightRecorder",
    "chrome_trace", "chrome_trace_json",
    "aggregate_ops", "critical_path", "diff_traces", "percentile",
    "SLO", "SLOEngine", "DEFAULT_SLOS", "evaluate_spans",
    "setup_logging", "get_logger", "kv", "to_json_line",
    "render_timeline", "load_span_log", "group_traces",
]
