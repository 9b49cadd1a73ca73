"""The ``repro.serve`` HTTP/JSON API.

Endpoints (all JSON):

``GET /healthz``
    Liveness: uptime, job-queue depth, store size.
``GET /scenarios``
    The scenario catalog (static + dynamic + imported families), same
    schema as ``repro scenarios --format json``.  Filter with
    ``?family=...`` / ``?filter=...``.  Carries a strong ``ETag`` over the
    catalog content + code version; served from an in-process LRU.
``GET /results``
    Filtered/paginated store records: ``?scenario= &family= &status=
    &scenario_hash= &code_version= &limit= &offset=`` plus ``?latest=1``
    for the newest record per scenario.  Answered from the sidecar index —
    no full-file parse.
``GET /results/{scenario}/latest``
    The newest stored record of one scenario, ``ETag:
    "<scenario_hash>+<code_version>"``.
``POST /runs``
    Enqueue a pipeline run: body ``{"scenario": ..., "period_s"?: ...,
    "baselines"?: [...], "rerun"?: bool}`` → ``202`` with the job record.
``GET /runs`` / ``GET /runs/{id}`` / ``POST /runs/{id}/cancel``
    Job listing, status polling, cancellation.
``GET /metrics``
    :mod:`repro.perf` hot-path counters plus request/response-cache/store
    statistics, and the :mod:`repro.obs` metric registry (histograms,
    gauges, counters).  ``?format=prometheus`` — or a scraper's
    ``Accept: text/plain`` / OpenMetrics header — switches to Prometheus
    text exposition.
``GET /trace/{trace_id}``
    Every buffered span of one trace (see ``X-Repro-Trace-Id``), ordered
    by start time.  Pool-worker spans appear once their job's result has
    been ingested.
``GET /profile``
    The process-wide sampling profiler's aggregate as collapsed stacks
    (``flamegraph.pl``-ready ``text/plain``; ``?format=json`` for the raw
    ``{stack: count}`` map).  Profiles arrive via the ``X-Repro-Profile``
    request header — on any request it samples the serving process for
    the request's duration; on ``POST /runs`` it additionally arms the
    *pool worker* for the job, whose stacks ship home over the result
    channel.  A numeric header value picks the sampling rate in Hz.
``GET /analyze/ops``
    Per-op latency aggregates (count, errors, total/self time,
    p50/p95/p99/max) over the span ring buffer.
``GET /analyze/critical-path/{trace_id}``
    The chain of spans that determined one trace's wall time, with each
    step's own contribution (see :func:`repro.obs.analyze.critical_path`).
``GET /slo``
    Machine-readable verdicts of the declarative latency/error-budget
    objectives (:mod:`repro.obs.slo`), with burn rates over the trailing
    five minutes of the metrics history.
``GET /metrics/history``
    Windowed time-series over the bounded metrics-history ring
    (:mod:`repro.obs.history`): ``?window=<seconds>`` selects the
    trailing window, ``?names=a,b`` filters series by metric name.
    Counter rates, gauge min/last/max, histogram p50/p95/p99 — the same
    window every flight-recorder bundle embeds.  Response size is bounded
    by the ring capacity regardless of uptime or store size.
``POST /debug/dump``
    Write a flight-recorder bundle now (requires ``--flight-dir``);
    responds with the bundle path.

Tracing: each request runs under a ``serve.request`` root span.  A client
``X-Repro-Trace-Id`` header forces sampling and names the trace; sampled
responses echo the id back in the same header.

Conditional requests: a matching ``If-None-Match`` yields ``304`` without
re-rendering.  Hash-addressed responses (catalog, latest-result) are cached
in an in-process LRU keyed by content identity, so repeated hits never
touch disk or re-serialise.
"""

from __future__ import annotations

import asyncio
import hashlib
import math
import re
import time
from collections import OrderedDict
from typing import Dict, Optional

from .. import perf
from ..obs.analyze import aggregate_ops, critical_path
from ..obs.flightrec import FLIGHT
from ..obs.history import DEFAULT_WINDOW_S, MetricsHistory
from ..obs.logs import get_logger, kv
from ..obs.metrics import REGISTRY
from ..obs.profile import MAX_HZ, PROFILER
from ..obs.runtime import RUNTIME
from ..obs.slo import SLOEngine
from ..obs.trace import TRACER
from ..pipeline import BASELINE_PLANNERS
from ..scenarios.registry import get_scenario, list_scenarios
from ..sweep.results import default_store_path
from ..sweep.runner import DEFAULT_BASELINES, DEFAULT_CACHE_DIR
from .breaker import CircuitOpen
from .catalog import catalog_etag, catalog_payload
from .http import HTTPError, Request, Response, json_response
from .jobs import JobQueue, QueueFull
from .store import ResultStore

__all__ = ["ReproApp", "LRUCache"]

_RUN_ROUTE = re.compile(r"^/runs/([^/]+)(/cancel)?$")
_LATEST_ROUTE = re.compile(r"^/results/([^/]+)/latest$")
_TRACE_ROUTE = re.compile(r"^/trace/([^/]+)$")
_CRITICAL_PATH_ROUTE = re.compile(r"^/analyze/critical-path/([^/]+)$")

_LOG = get_logger("serve.access")

#: Request latency per *route pattern* (never per raw path — unbounded
#: client-chosen paths must not mint unbounded label sets).
_REQUEST_SECONDS = REGISTRY.histogram(
    "repro_http_request_seconds",
    "HTTP request wall-clock seconds per route",
    labels=("route",))

#: Responses by status *class* ("2xx".."5xx" — five possible series, never
#: per raw status): the availability SLO's good/bad event source.
_RESPONSES_TOTAL = REGISTRY.counter(
    "repro_http_responses_total",
    "HTTP responses per status class",
    labels=("code",))


def _route_label(path: str) -> str:
    """The bounded route pattern a request path belongs to."""
    path = path.rstrip("/") or "/"
    if path in ("/healthz", "/metrics", "/scenarios", "/results", "/runs",
                "/profile", "/slo", "/analyze/ops", "/metrics/history",
                "/debug/dump"):
        return path
    if _LATEST_ROUTE.match(path):
        return "/results/{scenario}/latest"
    if _RUN_ROUTE.match(path):
        return "/runs/{id}"
    if _TRACE_ROUTE.match(path):
        return "/trace/{id}"
    if _CRITICAL_PATH_ROUTE.match(path):
        return "/analyze/critical-path/{id}"
    return "other"


def _profile_hz(request: Request) -> int:
    """The sampling rate an ``X-Repro-Profile`` header asks for (0 = none).

    Any truthy value arms the profiler at its default rate; a numeric
    value picks the rate in Hz (clamped to the profiler's bounds).
    """
    raw = (request.headers.get("x-repro-profile") or "").strip()
    if not raw or raw.lower() in ("0", "false", "no", "off"):
        return 0
    try:
        return max(1, min(MAX_HZ, int(raw)))
    except ValueError:
        return PROFILER.hz

#: How long ``close()`` waits for flight bundles scheduled before it.
FLIGHT_JOIN_S = 5.0

#: Most filtered result pages a single response will carry unless the
#: client asks for fewer.
DEFAULT_PAGE_LIMIT = 100
MAX_PAGE_LIMIT = 1000


class LRUCache:
    """A small thread-compatible LRU for rendered response bodies."""

    def __init__(self, capacity: int = 128) -> None:
        self.capacity = capacity
        self._data: "OrderedDict[object, bytes]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def get(self, key: object) -> Optional[bytes]:
        try:
            value = self._data[key]
        except KeyError:
            self.misses += 1
            return None
        self._data.move_to_end(key)
        self.hits += 1
        return value

    def put(self, key: object, value: bytes) -> None:
        self._data[key] = value
        self._data.move_to_end(key)
        while len(self._data) > self.capacity:
            self._data.popitem(last=False)

    def __len__(self) -> int:
        return len(self._data)


def _int_param(request: Request, name: str, default: int,
               minimum: int = 0, maximum: Optional[int] = None) -> int:
    raw = request.query.get(name)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise HTTPError(400, f"query parameter {name!r} must be an integer")
    if value < minimum or (maximum is not None and value > maximum):
        raise HTTPError(400, f"query parameter {name!r} out of range")
    return value


def _record_payload(record) -> Dict[str, object]:
    return {
        "scenario": record.scenario,
        "family": record.family,
        "scenario_hash": record.scenario_hash,
        "code_version": record.code_version,
        "status": record.status,
        "cached": record.cached,
        "elapsed_s": record.elapsed_s,
        "summary": record.summary,
        "error": record.error,
    }


class ReproApp:
    """Route table + shared state of one serving process.

    ``runtime_interval_s`` was the period of a runtime sampler thread that
    no longer exists; the process gauges are now read on demand by each
    metrics-history snapshot.  The parameter survives because callers
    still pass it: ``0`` means "no GC watch", which keeps the
    :data:`gc.callbacks` hook out of a measurement, and any other value
    installs the watch at :meth:`start`.
    """

    def __init__(self, cache_dir: str = DEFAULT_CACHE_DIR,
                 store_path: Optional[str] = None,
                 pool_processes: int = 2,
                 job_timeout_s: float = 600.0,
                 queue_size: int = 32,
                 cache_capacity: int = 256,
                 job_retries: int = 1,
                 breaker_threshold: int = 5,
                 breaker_cooldown_s: float = 30.0,
                 flight_dir: Optional[str] = None,
                 history_interval_s: float = 5.0,
                 history_capacity: int = 360,
                 runtime_interval_s: float = 1.0) -> None:
        self.cache_dir = cache_dir
        self.store_path = store_path or default_store_path(cache_dir)
        self.store = ResultStore(self.store_path)
        self.jobs = JobQueue(cache_dir=cache_dir, out_path=self.store_path,
                             pool_processes=pool_processes,
                             timeout_s=job_timeout_s, maxsize=queue_size,
                             retries=job_retries,
                             breaker_threshold=breaker_threshold,
                             breaker_cooldown_s=breaker_cooldown_s,
                             # A result the disk refuses is held by the
                             # store's in-memory fallback: the client still
                             # reads it, a later flush retries the append.
                             on_persist_error=self._on_persist_error)
        self.cache = LRUCache(cache_capacity)
        self.started_at = time.time()     # wall clock: display only
        # Uptime is a duration: derive it from the monotonic clock so an
        # NTP step can't make /healthz report a negative (or huge) uptime.
        self._started_mono = time.monotonic()
        self.requests_total = 0
        self.responses_by_status: Dict[int, int] = {}
        # Callback gauges over this app's live state.  gauge() re-binds the
        # callback on re-registration, so the newest app instance (tests
        # build many per process) owns the exported series.
        REGISTRY.gauge("repro_jobs_pending",
                       "jobs submitted but not yet finished",
                       fn=self.jobs.pending)
        REGISTRY.gauge("repro_jobs_running", "jobs currently executing",
                       fn=lambda: sum(1 for j in self.jobs.jobs()
                                      if j.status == "running"))
        REGISTRY.gauge("repro_store_records",
                       "result-store records the sidecar index covers",
                       fn=self.store.count)
        REGISTRY.gauge("repro_store_bytes",
                       "result-store bytes the sidecar index covers",
                       fn=self.store.indexed_size)
        REGISTRY.gauge("repro_response_cache_entries",
                       "rendered response bodies held in the LRU",
                       fn=lambda: len(self.cache))
        REGISTRY.gauge("repro_breakers_open",
                       "scenario circuit breakers currently not closed",
                       fn=self.jobs.breakers.open_count)
        REGISTRY.gauge("repro_store_fallback_records",
                       "result records held only in memory (disk refused)",
                       fn=self.store.fallback_count)
        REGISTRY.gauge("repro_pool_busy_workers",
                       "pool workers currently executing a task",
                       fn=self.jobs.busy_workers)
        REGISTRY.gauge("repro_pool_queue_depth",
                       "jobs accepted but not yet dispatched to the pool",
                       fn=self.jobs.queue_depth)
        self._watch_gc = runtime_interval_s != 0
        self.history = MetricsHistory(capacity=history_capacity,
                                      interval_s=history_interval_s,
                                      on_snapshot=self._check_slo_breach)
        self.slo_engine = SLOEngine(history=self.history)
        # The process-wide flight recorder serves this (newest) app: its
        # bundles embed our health snapshot and history ring.
        FLIGHT.configure(flight_dir=flight_dir, history=self.history,
                         health_fn=self._health_payload)

    # -- plumbing -----------------------------------------------------------

    def _on_persist_error(self, record) -> None:
        # Degrading to the in-memory fallback is a forensics moment: the
        # disk just refused a write this process promised to keep.
        FLIGHT.maybe_dump("persist-fallback")
        self.store.remember([record])

    def _check_slo_breach(self) -> None:
        """History-thread hook: a breach verdict triggers a flight dump
        (only evaluated while the recorder can write one)."""
        if not FLIGHT.enabled:
            return
        verdict = self.slo_engine.evaluate()
        if verdict.get("status") == "breach":
            FLIGHT.maybe_dump("slo-breach")

    def start(self) -> None:
        """Start the background machinery (needs a running event loop)."""
        self.jobs.start()
        self.history.start()
        if self._watch_gc:
            RUNTIME.gc_watch.install()
        try:
            loop = asyncio.get_running_loop()
        except RuntimeError:
            loop = None
        if loop is not None:
            RUNTIME.arm_loop_monitor(loop)

    @property
    def draining(self) -> bool:
        return self.jobs.draining

    async def drain(self, timeout_s: float = 10.0) -> None:
        """Graceful shutdown, phase one: refuse new jobs, wait for
        in-flight ones up to ``timeout_s``, then flush everything durable
        (in-memory fallback records, the sidecar index, buffered spans go
        with the span-log handler's own flushing).  :meth:`close` follows.
        """
        # The bundle is written *before* the drain so it captures the
        # in-flight state SIGTERM interrupted, not the emptied-out queue —
        # and synchronously, so process exit cannot outrun the write.
        if FLIGHT.enabled:
            FLIGHT.dump("sigterm")
        cut_off = await self.jobs.drain(timeout_s)
        self.store.flush()
        _LOG.warning("event=drained %s",
                     kv(cut_off=cut_off, uptime_s=round(
                         time.monotonic() - self._started_mono, 3)))

    async def close(self) -> None:
        RUNTIME.disarm_loop_monitor()
        RUNTIME.gc_watch.remove()
        self.history.stop()
        await self.jobs.close()
        # A bundle scheduled just before shutdown (a breaker that opened
        # on the last job) must still land; wait off the loop thread.
        if not await asyncio.to_thread(FLIGHT.join, FLIGHT_JOIN_S):
            _LOG.warning("event=flight_dumps_unfinished %s",
                         kv(waited_s=FLIGHT_JOIN_S))
        self.store.close()

    async def handle(self, request: Request) -> Response:
        """Dispatch one request (the :func:`serve_http` handler)."""
        self.requests_total += 1
        t0 = time.perf_counter()
        profile_hz = _profile_hz(request)
        with TRACER.start_trace(
                "serve.request",
                trace_id=request.headers.get("x-repro-trace-id"),
                method=request.method, path=request.path) as span, \
                PROFILER.maybe(bool(profile_hz), hz=profile_hz):
            try:
                response = await self._route(request)
            except HTTPError as exc:
                response = json_response({"error": exc.message}, exc.status)
            except Exception as exc:   # noqa: BLE001 — a failing handler
                # must still be *counted*; the transport-level catch-all in
                # serve/http.py would synthesize the 500 outside this
                # accounting and /metrics would show no error signal.
                response = json_response(
                    {"error": f"internal error: {type(exc).__name__}: "
                              f"{exc}"},
                    500)
            span.set_attrs(status=response.status)
            if span.trace_id is not None:
                response.headers.setdefault("X-Repro-Trace-Id",
                                            span.trace_id)
        duration_s = time.perf_counter() - t0
        _REQUEST_SECONDS.labels(
            route=_route_label(request.path)).observe(duration_s)
        _RESPONSES_TOTAL.labels(code=f"{response.status // 100}xx").inc()
        self.responses_by_status[response.status] = \
            self.responses_by_status.get(response.status, 0) + 1
        _LOG.info("event=access %s", kv(
            method=request.method, path=request.path,
            status=response.status, bytes=len(response.body),
            ms=round(duration_s * 1e3, 2), trace=span.trace_id))
        return response

    async def _route(self, request: Request) -> Response:
        path, method = request.path.rstrip("/") or "/", request.method
        if path == "/healthz":
            return self._healthz(method)
        if path == "/metrics/history":
            return self._metrics_history(request, method)
        if path == "/metrics":
            return self._metrics(request, method)
        if path == "/debug/dump":
            return self._debug_dump(method)
        if path == "/scenarios":
            return self._scenarios(request, method)
        if path == "/results":
            return self._results(request, method)
        match = _LATEST_ROUTE.match(path)
        if match:
            return self._latest(request, method, match.group(1))
        if path == "/runs":
            if method == "POST":
                return self._submit_run(request)
            return self._list_runs(method)
        match = _RUN_ROUTE.match(path)
        if match:
            return self._run_detail(method, match.group(1),
                                    cancel=bool(match.group(2)))
        match = _TRACE_ROUTE.match(path)
        if match:
            return self._trace(method, match.group(1))
        if path == "/profile":
            return self._profile(request, method)
        if path == "/analyze/ops":
            return self._analyze_ops(request, method)
        match = _CRITICAL_PATH_ROUTE.match(path)
        if match:
            return self._critical_path(request, method, match.group(1))
        if path == "/slo":
            return self._slo(method)
        raise HTTPError(404, f"no such endpoint: {request.path}")

    @staticmethod
    def _require(method: str, *allowed: str) -> None:
        if method not in allowed:
            raise HTTPError(405, f"method {method} not allowed here")

    def _conditional(self, request: Request, etag: str,
                     render, cache_key: object) -> Response:
        """ETag/LRU shared tail of the hash-addressed GET endpoints.

        ``render`` is only called on an LRU miss; its body is cached under
        ``(cache_key, etag)``, so repeated hits re-serialise nothing and
        (for store-backed content) never touch disk.
        """
        if request.headers.get("if-none-match") == etag:
            return Response(status=304, headers={"ETag": etag})
        key = (cache_key, etag)
        body = self.cache.get(key)
        if body is None:
            body = render()
            self.cache.put(key, body)
        return Response(status=200, body=body, headers={"ETag": etag})

    # -- endpoints ----------------------------------------------------------

    def _health_payload(self) -> Dict[str, object]:
        """The ``/healthz`` document (also embedded in flight bundles)."""
        return {
            "status": "ok",
            "uptime_s": round(time.monotonic() - self._started_mono, 3),
            "started_at": self.started_at,
            "jobs_pending": self.jobs.pending(),
            "store_records": self.store.count(),
            "draining": self.draining,
            "breakers": self.jobs.breakers.states(),
            "store_fallback_records": self.store.fallback_count(),
        }

    def _healthz(self, method: str) -> Response:
        self._require(method, "GET", "HEAD")
        # Degradation (open breakers, fallback records, draining) is
        # *reported*, but the status stays "ok": one poisoned scenario or
        # a full disk must not make an orchestrator kill a server that is
        # still answering every other request.
        return json_response(self._health_payload())

    def _metrics(self, request: Request, method: str) -> Response:
        self._require(method, "GET", "HEAD")
        fmt = request.query.get("format")
        if fmt not in (None, "json", "prometheus"):
            raise HTTPError(400, "query parameter 'format' must be "
                                 "'json' or 'prometheus'")
        accept = request.headers.get("accept", "")
        if fmt == "prometheus" or (fmt is None and
                                   ("text/plain" in accept
                                    or "openmetrics-text" in accept)):
            return Response(
                status=200,
                body=REGISTRY.render_prometheus().encode("utf-8"),
                content_type="text/plain; version=0.0.4; charset=utf-8")
        return json_response({
            "perf_counters": perf.counters_snapshot(),
            "requests": {
                "total": self.requests_total,
                "by_status": {str(k): v for k, v in
                              sorted(self.responses_by_status.items())},
            },
            "response_cache": {
                "hits": self.cache.hits,
                "misses": self.cache.misses,
                "entries": len(self.cache),
            },
            "store": dict(self.store.stats),
            "jobs": {
                "pending": self.jobs.pending(),
                "completed": self.jobs.completed,
                "tracked": len(self.jobs.jobs()),
            },
            "metrics": REGISTRY.snapshot(),
            "tracing": {
                "sample_rate": TRACER.sample_rate,
                "buffered_spans": len(TRACER),
                "log_errors": TRACER.log_errors,
            },
        })

    def _metrics_history(self, request: Request, method: str) -> Response:
        self._require(method, "GET", "HEAD")
        window = _int_param(request, "window", int(DEFAULT_WINDOW_S),
                            minimum=1, maximum=86400)
        raw_names = (request.query.get("names") or "").strip()
        names = None
        if raw_names:
            names = [name for name in raw_names.split(",") if name][:32]
        # Never conditional/cached: the ring advances every interval and
        # the document is already bounded by the ring capacity.
        return json_response(self.history.window(window, names=names))

    def _debug_dump(self, method: str) -> Response:
        self._require(method, "POST")
        if not FLIGHT.enabled:
            raise HTTPError(409, "flight recorder disabled; start the "
                                 "server with --flight-dir")
        path = FLIGHT.dump("manual")
        if path is None:
            raise HTTPError(500, "flight bundle write failed (see "
                                 "repro_flight_dump_errors_total)")
        return json_response({"path": path, "reason": "manual"})

    def _scenarios(self, request: Request, method: str) -> Response:
        self._require(method, "GET", "HEAD")
        pattern = request.query.get("filter")
        family = request.query.get("family")
        scenarios = list_scenarios(pattern, family=family)
        etag = catalog_etag(scenarios)

        def render() -> bytes:
            return json_response(catalog_payload(scenarios)).body

        return self._conditional(request, etag, render,
                                 ("scenarios", pattern, family))

    def _results(self, request: Request, method: str) -> Response:
        self._require(method, "GET", "HEAD")
        limit = _int_param(request, "limit", DEFAULT_PAGE_LIMIT,
                           minimum=1, maximum=MAX_PAGE_LIMIT)
        offset = _int_param(request, "offset", 0)
        filters = {key: request.query[key]
                   for key in ("scenario", "family", "scenario_hash",
                               "code_version", "status")
                   if key in request.query}
        unknown = [key for key in request.query
                   if key not in ("scenario", "family", "scenario_hash",
                                  "code_version", "status", "limit",
                                  "offset", "latest", "order")]
        if unknown:
            raise HTTPError(400, f"unknown query parameters: {unknown}")
        order = request.query.get("order", "asc")
        if order not in ("asc", "desc"):
            raise HTTPError(400, "query parameter 'order' must be "
                                 "'asc' or 'desc'")
        latest = request.query.get("latest", "") in ("1", "true", "yes")
        query_key = ("results", tuple(sorted(filters.items())), limit,
                     offset, latest, order)
        # Index any fresh appends *before* deriving the tag, or the first
        # query after an append would carry a pre-refresh tag its own
        # response immediately invalidates.
        self.store.refresh()
        # The tag covers the query *and* the store state: a 304 must never
        # leak across differently-filtered result pages.
        etag = '"results-' + hashlib.sha256(
            (repr(query_key) + self.store.state_token()).encode("utf-8")
        ).hexdigest()[:20] + '"'

        def render() -> bytes:
            if latest:
                if "scenario" in filters:
                    # One indexed lookup — not a fetch of every scenario's
                    # newest record just to keep one.
                    record = self.store.latest(filters["scenario"],
                                               status=filters.get("status"))
                    records = [record] if record is not None else []
                else:
                    records = self.store.latest_per_scenario(
                        family=filters.get("family"),
                        status=filters.get("status"))
                # The collapse pre-filters only on what its index path
                # supports; honour the remaining accepted filters on the
                # collapsed set rather than silently ignoring them.
                for key in ("family", "scenario_hash", "code_version"):
                    if key in filters:
                        records = [r for r in records
                                   if getattr(r, key) == filters[key]]
                if order == "desc":
                    records.reverse()
                total = len(records)
                records = records[offset:offset + limit]
            else:
                records, total = self.store.query(offset=offset, limit=limit,
                                                  newest_first=order ==
                                                  "desc", **filters)
            return json_response({
                "total": total,
                "offset": offset,
                "limit": limit,
                "records": [_record_payload(r) for r in records],
            }).body

        return self._conditional(request, etag, render, query_key)

    def _latest(self, request: Request, method: str,
                scenario: str) -> Response:
        self._require(method, "GET", "HEAD")
        # The tag derives from index metadata alone, so a 304 (or LRU hit)
        # is answered without reading the store body — this is the endpoint
        # clients poll.
        entry = self.store.latest_entry(scenario)
        if entry is None:
            raise HTTPError(404, f"no stored results for scenario "
                                 f"{scenario!r}")
        etag = f'"{entry.scenario_hash}+{entry.code_version[:12]}"'

        def render() -> bytes:
            record = self.store.latest(scenario)
            if record is None:           # store replaced under our feet
                raise HTTPError(404, f"no stored results for scenario "
                                     f"{scenario!r}")
            return json_response(_record_payload(record)).body

        # The store may gain a *new* record for the scenario while hash and
        # code version stay identical (a rerun); fold the store state into
        # the cache key, keeping the client-visible ETag purely
        # hash-addressed.
        return self._conditional(request, etag, render,
                                 ("latest", scenario,
                                  self.store.state_token()))

    def _submit_run(self, request: Request) -> Response:
        payload = request.json()
        if not isinstance(payload, dict):
            raise HTTPError(422, "request body must be a JSON object")
        scenario = payload.get("scenario")
        if not isinstance(scenario, str) or not scenario:
            raise HTTPError(422, "field 'scenario' (string) is required")
        try:
            get_scenario(scenario)
        except KeyError:
            raise HTTPError(404, f"unknown scenario {scenario!r}")
        period_s = payload.get("period_s", 60.0)
        # json.loads accepts bare NaN/Infinity tokens; they must not leak
        # into cache filenames, pipeline maths or (as invalid JSON) into
        # every later response that echoes the job.
        if isinstance(period_s, bool) or \
                not isinstance(period_s, (int, float)) or \
                not math.isfinite(period_s) or period_s <= 0:
            raise HTTPError(422, "field 'period_s' must be a positive "
                                 "finite number")
        baselines = payload.get("baselines", list(DEFAULT_BASELINES))
        if not isinstance(baselines, list) or \
                not all(isinstance(b, str) for b in baselines):
            raise HTTPError(422, "field 'baselines' must be a list of "
                                 "planner names")
        unknown = [b for b in baselines if b not in BASELINE_PLANNERS]
        if unknown:
            raise HTTPError(422, f"unknown baseline planners: {unknown}")
        rerun = payload.get("rerun", False)
        if not isinstance(rerun, bool):
            raise HTTPError(422, "field 'rerun' must be a boolean")
        extra = [k for k in payload if k not in ("scenario", "period_s",
                                                 "baselines", "rerun")]
        if extra:
            raise HTTPError(422, f"unknown fields: {extra}")
        try:
            # The ambient context is the request's serve.request span; the
            # job (and its pool worker) parent their spans under it long
            # after this handler has returned its 202.  An X-Repro-Profile
            # header arms the pool worker's sampling profiler for the job.
            job = self.jobs.submit(scenario, period_s=float(period_s),
                                   baselines=tuple(baselines), rerun=rerun,
                                   trace_ctx=TRACER.current_context(),
                                   profile_hz=_profile_hz(request))
        except (QueueFull, CircuitOpen) as exc:
            raise HTTPError(503, str(exc))
        return json_response(job.as_payload(), status=202,
                             headers={"Location": f"/runs/{job.id}"})

    def _list_runs(self, method: str) -> Response:
        self._require(method, "GET", "HEAD")
        return json_response({
            "jobs": [job.as_payload() for job in self.jobs.jobs()],
        })

    def _run_detail(self, method: str, job_id: str, cancel: bool) -> Response:
        if cancel:
            self._require(method, "POST")
            try:
                job = self.jobs.cancel(job_id)
            except KeyError:
                raise HTTPError(404, f"unknown job {job_id!r}")
            return json_response(job.as_payload())
        self._require(method, "GET", "HEAD")
        job = self.jobs.get(job_id)
        if job is None:
            raise HTTPError(404, f"unknown job {job_id!r}")
        return json_response(job.as_payload())

    def _trace(self, method: str, trace_id: str) -> Response:
        self._require(method, "GET", "HEAD")
        spans = TRACER.trace(trace_id)
        if not spans:
            raise HTTPError(404, f"no buffered spans for trace "
                                 f"{trace_id!r}")
        return json_response({
            "trace_id": trace_id,
            "count": len(spans),
            "spans": spans,
        })

    def _profile(self, request: Request, method: str) -> Response:
        self._require(method, "GET", "HEAD")
        fmt = request.query.get("format", "collapsed")
        if fmt not in ("collapsed", "json"):
            raise HTTPError(400, "query parameter 'format' must be "
                                 "'collapsed' or 'json'")
        # The state token covers every sample (local and ingested), so a
        # profiled job completing invalidates the tag.
        etag = f'"profile-{PROFILER.state_token()}-{fmt}"'
        if fmt == "json":
            def render() -> bytes:
                stacks = PROFILER.stacks()
                return json_response({
                    "samples": sum(stacks.values()),
                    "armed": PROFILER.armed,
                    "mode": PROFILER.mode,
                    "hz": PROFILER.hz,
                    "stacks": stacks,
                }).body
            return self._conditional(request, etag, render,
                                     ("profile", "json"))

        def render() -> bytes:
            return PROFILER.collapsed_text().encode("utf-8")

        response = self._conditional(request, etag, render,
                                     ("profile", "collapsed"))
        response.content_type = "text/plain; charset=utf-8"
        return response

    def _analyze_ops(self, request: Request, method: str) -> Response:
        self._require(method, "GET", "HEAD")
        op_filter = request.query.get("op")
        etag = (f'"ops-{TRACER.state_token()}-'
                f'{hashlib.sha256(repr(op_filter).encode()).hexdigest()[:8]}"')

        def render() -> bytes:
            spans = TRACER.spans()
            rows = aggregate_ops(spans)
            if op_filter:
                rows = [row for row in rows if op_filter in row["op"]]
            return json_response({
                "spans": len(spans),
                "ops": rows,
            }).body

        return self._conditional(request, etag, render,
                                 ("analyze-ops", op_filter))

    def _critical_path(self, request: Request, method: str,
                       trace_id: str) -> Response:
        self._require(method, "GET", "HEAD")
        # The tag folds the ring state in: a worker's spans being ingested
        # after the job finishes changes the path of the same trace id.
        etag = f'"cpath-{trace_id}-{TRACER.state_token()}"'
        spans = TRACER.trace(trace_id)
        if not spans:
            raise HTTPError(404, f"no buffered spans for trace "
                                 f"{trace_id!r}")

        def render() -> bytes:
            steps = critical_path(spans)
            return json_response({
                "trace_id": trace_id,
                "span_count": len(spans),
                "total_s": steps[0]["duration_s"] if steps else 0.0,
                "steps": steps,
            }).body

        return self._conditional(request, etag, render,
                                 ("critical-path", trace_id))

    def _slo(self, method: str) -> Response:
        self._require(method, "GET", "HEAD")
        # A live evaluation (like /metrics, /healthz): every call grades
        # the current tallies, so the body is never cacheable.
        return json_response(self.slo_engine.evaluate())
