"""Span tracing: context propagation, sampling, ring buffer, span log.

One process-wide :data:`TRACER` records *spans* — named, timed segments of
work with a trace id shared along a causal chain.  The design goals, in
order:

1. **Near-free when disabled.**  With a zero sample rate (the default)
   :meth:`Tracer.start_trace` returns the no-op :data:`NULL_SPAN` and every
   nested :meth:`Tracer.span` call reduces to one ``ContextVar`` read — no
   allocation, no locking, no clock reads.  The fast-path overhead
   benchmark gates this.
2. **Context propagation without plumbing.**  The active span lives in a
   :mod:`contextvars` variable, so nested layers (pipeline stages, mapper
   phases, replay epochs) pick their parent up ambiently — including
   across ``await`` boundaries, where each asyncio task carries its own
   context.  Crossing a *process* boundary is explicit: the caller ships
   :meth:`Tracer.current_context` with the task, the worker wraps its work
   in :meth:`Tracer.adopt` inside a :meth:`Tracer.capture`, and the
   finished spans ride home in the task's
   :class:`~repro.sweep.runner.TaskResult` to be :meth:`Tracer.ingest`-ed.
3. **Queryable afterwards.**  Finished spans land in a bounded in-process
   ring buffer (served by ``GET /trace/{trace_id}``) and, when configured,
   are appended to a JSONL span log — one unbuffered ``O_APPEND`` write
   per span, so concurrent writers interleave only at line boundaries
   (the same discipline as the sweep result store).  Pool workers drop
   the log path they inherit at fork: their spans reach the log once,
   through the submitter's ingest.

Spans carry the :mod:`repro.perf` counter deltas of the work they cover
(only the non-zero ones, under an ``attrs["perf"]`` dict), and the tracer
warns through the structured logger about spans slower than a configurable
threshold.
"""

from __future__ import annotations

import random
import re
import threading
import time
from collections import deque
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Dict, Iterator, List, Optional

from .. import perf
from ..ioutils import append_line, fresh_lock_after_fork
from .logs import get_logger, kv, to_json_line

__all__ = ["Span", "Tracer", "TRACER", "NULL_SPAN"]

#: Trace/span ids minted here are 16 hex chars; accepted client-supplied
#: trace ids are a superset (UUIDs, W3C-style ids) but stay shell- and
#: log-safe.
_ID_PATTERN = re.compile(r"[A-Za-z0-9_-]{1,64}")

_CURRENT_SPAN: "ContextVar[Optional[Span]]" = ContextVar(
    "repro_obs_current_span", default=None)

_LOG = get_logger("obs.trace")


def _new_id() -> str:
    return f"{random.getrandbits(64):016x}"


class _NullSpan:
    """The shared do-nothing span unsampled code paths run under."""

    __slots__ = ()
    sampled = False
    trace_id: Optional[str] = None
    span_id: Optional[str] = None

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        return None

    def set_attrs(self, **attrs) -> None:
        return None

    def context(self) -> None:
        return None


NULL_SPAN = _NullSpan()


class Span:
    """One sampled, timed segment of work (a context manager).

    Entering sets the span as the ambient parent for nested spans and
    snapshots the perf counters; exiting computes the duration, attaches
    the non-zero counter deltas under ``attrs["perf"]`` and hands the
    finished span to the tracer.
    """

    __slots__ = ("tracer", "trace_id", "span_id", "parent_id", "name",
                 "attrs", "start_ts", "duration_s", "_t0", "_token",
                 "_perf_before")
    sampled = True

    def __init__(self, tracer: "Tracer", trace_id: str,
                 parent_id: Optional[str], name: str,
                 attrs: Dict[str, object]) -> None:
        self.tracer = tracer
        self.trace_id = trace_id
        self.span_id = _new_id()
        self.parent_id = parent_id
        self.name = name
        self.attrs = attrs
        self.start_ts = 0.0
        self.duration_s = 0.0
        self._t0 = 0.0
        self._token = None
        self._perf_before: Dict[str, int] = {}

    def set_attrs(self, **attrs) -> None:
        self.attrs.update(attrs)

    def context(self) -> Dict[str, str]:
        """The wire-format trace context nested/remote work parents under."""
        return {"trace_id": self.trace_id, "span_id": self.span_id}

    def __enter__(self) -> "Span":
        self._token = _CURRENT_SPAN.set(self)
        self.start_ts = time.time()
        self._perf_before = perf.counters_snapshot()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.duration_s = time.perf_counter() - self._t0
        after = perf.counters_snapshot()
        deltas = {key: after[key] - self._perf_before[key]
                  for key in after if after[key] != self._perf_before[key]}
        if deltas:
            self.attrs["perf"] = deltas
        if exc_type is not None:
            self.attrs["error"] = exc_type.__name__
        _CURRENT_SPAN.reset(self._token)
        self.tracer._record(self.to_dict())

    def to_dict(self) -> Dict[str, object]:
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start_ts": self.start_ts,
            "duration_s": self.duration_s,
            "attrs": self.attrs,
        }


class _Capture:
    """Collects the finished spans of one in-thread work unit."""

    __slots__ = ("spans",)

    def __init__(self) -> None:
        self.spans: List[Dict[str, object]] = []


class Tracer:
    """The process-wide span recorder (see the module docstring)."""

    DEFAULT_CAPACITY = 4096

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        self._lock = threading.Lock()
        self._ring: "deque[Dict[str, object]]" = deque(maxlen=capacity)
        self._local = threading.local()
        self._random = random.Random()
        self.sample_rate = 0.0
        self.log_path: Optional[str] = None
        #: Size cap for the span log; once reached the log rotates to a
        #: ``.1`` sibling (see :func:`repro.ioutils.rotate_if_needed`).
        #: ``0`` = unbounded.
        self.log_max_bytes = 0
        self.slow_span_s: Optional[float] = None
        self.log_errors = 0
        self._recorded = 0

    # -- configuration -------------------------------------------------------

    def configure(self, sample_rate: Optional[float] = None,
                  log_path: Optional[str] = None,
                  slow_span_s: Optional[float] = None,
                  capacity: Optional[int] = None,
                  log_max_bytes: Optional[int] = None) -> None:
        """Set any subset of the tracer's knobs (``None`` = leave as is)."""
        with self._lock:
            if sample_rate is not None:
                if not 0.0 <= sample_rate <= 1.0:
                    raise ValueError("sample_rate must be within [0, 1]")
                self.sample_rate = sample_rate
            if log_path is not None:
                self.log_path = log_path or None
            if slow_span_s is not None:
                self.slow_span_s = slow_span_s if slow_span_s > 0 else None
            if capacity is not None:
                self._ring = deque(self._ring, maxlen=max(1, capacity))
            if log_max_bytes is not None:
                self.log_max_bytes = max(0, log_max_bytes)

    def reset(self) -> None:
        """Back to defaults (disabled, empty ring) — test isolation hook."""
        with self._lock:
            self._ring = deque(maxlen=self.DEFAULT_CAPACITY)
            self.sample_rate = 0.0
            self.log_path = None
            self.log_max_bytes = 0
            self.slow_span_s = None
            self.log_errors = 0

    @property
    def enabled(self) -> bool:
        return self.sample_rate > 0.0

    # -- span creation -------------------------------------------------------

    def start_trace(self, name: str, trace_id: Optional[str] = None,
                    **attrs) -> "Span | _NullSpan":
        """Open a root span, minting (or accepting) the trace id.

        A caller-supplied ``trace_id`` (e.g. an ``X-Repro-Trace-Id``
        request header) forces sampling — the client asked for this trace;
        malformed ids fall back to the sampling decision with a minted id.
        """
        if trace_id is not None and _ID_PATTERN.fullmatch(trace_id):
            return Span(self, trace_id, None, name, attrs)
        if self.sample_rate <= 0.0 or (self.sample_rate < 1.0 and
                                       self._random.random()
                                       >= self.sample_rate):
            return NULL_SPAN
        return Span(self, _new_id(), None, name, attrs)

    def span(self, name: str, **attrs) -> "Span | _NullSpan":
        """A child of the ambient span — a no-op outside any sampled trace."""
        parent = _CURRENT_SPAN.get()
        if parent is None:
            return NULL_SPAN
        return Span(self, parent.trace_id, parent.span_id, name, attrs)

    def adopt(self, context: Optional[Dict[str, str]], name: str,
              **attrs) -> "Span | _NullSpan":
        """A span parented under a *shipped* context (cross-process/task)."""
        if not context or "trace_id" not in context:
            return NULL_SPAN
        return Span(self, str(context["trace_id"]),
                    context.get("span_id"), name, attrs)

    def current_context(self) -> Optional[Dict[str, str]]:
        """The ambient span's wire context, or ``None`` outside a trace."""
        span = _CURRENT_SPAN.get()
        return span.context() if span is not None else None

    def record_external(self, name: str, context: Optional[Dict[str, str]],
                        start_ts: float, duration_s: float, **attrs) -> None:
        """Record a span whose interval was measured out of band.

        Used for intervals no single frame encloses — e.g. a job's
        queue-wait, measured from its submission timestamp when a
        dispatcher finally picks it up.
        """
        if not context or "trace_id" not in context:
            return
        self._record({
            "trace_id": str(context["trace_id"]),
            "span_id": _new_id(),
            "parent_id": context.get("span_id"),
            "name": name,
            "start_ts": start_ts,
            "duration_s": duration_s,
            "attrs": attrs,
        })

    # -- recording / querying ------------------------------------------------

    def _record(self, span: Dict[str, object]) -> None:
        with self._lock:
            self._ring.append(span)
            self._recorded += 1
            captures = getattr(self._local, "captures", None)
            if captures:
                for capture in captures:
                    capture.spans.append(span)
            log_path = self.log_path
            log_max = self.log_max_bytes
            slow_s = self.slow_span_s
        if log_path is not None:
            try:
                append_line(log_path, to_json_line(span),
                            rotate_at=log_max)
            except OSError:
                self.log_errors += 1
        if slow_s is not None and span["duration_s"] >= slow_s:
            _LOG.warning("event=slow_span %s", kv(
                name=span["name"], trace=span["trace_id"],
                ms=round(span["duration_s"] * 1e3, 1)))

    def ingest(self, spans: List[Dict[str, object]]) -> None:
        """Record spans finished elsewhere (a pool worker) in this process:
        ring buffer, span log and slow-span warning, exactly once."""
        for span in spans or []:
            if isinstance(span, dict) and "trace_id" in span:
                self._record(span)

    @contextmanager
    def capture(self) -> Iterator[_Capture]:
        """Additionally collect spans finished in this thread while active.

        How a pool worker gathers the spans of one task to ship home in
        its ``TaskResult``; nesting is supported (each capture sees the
        spans finished inside it).
        """
        capture = _Capture()
        if not hasattr(self._local, "captures"):
            self._local.captures = []
        with self._lock:
            self._local.captures.append(capture)
        try:
            yield capture
        finally:
            with self._lock:
                self._local.captures.remove(capture)

    def trace(self, trace_id: str) -> List[Dict[str, object]]:
        """Every buffered span of one trace, ordered by start time."""
        with self._lock:
            spans = [span for span in self._ring
                     if span.get("trace_id") == trace_id]
        return sorted(spans, key=lambda s: (s.get("start_ts", 0.0),
                                            s.get("duration_s", 0.0)))

    def spans(self) -> List[Dict[str, object]]:
        """A snapshot of the whole ring buffer (oldest first)."""
        with self._lock:
            return list(self._ring)

    def state_token(self) -> str:
        """Changes whenever a span lands — the ``/analyze`` ETag seed.

        Monotonic (unlike ``len()``, which plateaus once the ring wraps).
        """
        with self._lock:
            return str(self._recorded)

    def __len__(self) -> int:
        with self._lock:
            return len(self._ring)


#: The process-wide tracer every layer records into.  Disabled (sample
#: rate 0) until the CLI / serving layer configures it.
TRACER = Tracer()
fresh_lock_after_fork(TRACER)
