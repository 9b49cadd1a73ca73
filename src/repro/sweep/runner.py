"""The parallel sweep runner.

:func:`run_sweep` shards a list of registered scenarios across a
``multiprocessing`` pool, runs the full map → plan → quality pipeline per
scenario (:func:`repro.pipeline.run_pipeline`), caches each result on disk
keyed by scenario content hash + code version, and aggregates the outcomes
into a JSONL result store plus summary rows.

Cache layout (one file per scenario × code state × run parameters)::

    <cache_dir>/<scenario>-<scenario_hash[:12]>-<code_version[:12]>-<run_key[:8]>.json

A cached scenario is *not* re-run unless ``rerun=True``; editing any source
file under ``src/repro`` changes the code version and invalidates the whole
cache, editing a scenario's parameters invalidates that scenario only, and
sweeping with different run parameters (``period_s`` / ``baselines``) uses
separate cache entries.

Crash resilience: every parallel task, a sweep's or a served job's, goes
through one engine, :class:`Dispatch`: per-task deadlines, exact
worker-death detection, retries with seeded backoff and quarantine as a
``status="failed"`` record.  Every retry, respawn, death, deadline and
quarantine is a :mod:`repro.obs` counter plus a structured log line.
"""

from __future__ import annotations

import atexit
import hashlib
import itertools
import json
import multiprocessing
import multiprocessing.pool
import os
import random
import struct
import threading
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from functools import lru_cache
from multiprocessing.connection import Connection
from typing import Dict, List, Optional, Sequence, Tuple

from ..analysis import render_table
from ..dynamics import DynamicScenario, run_replay
from .. import faults
from ..faults import FaultInjected
from ..ioutils import write_atomic
from ..obs.logs import get_logger, kv
from ..obs.metrics import REGISTRY
from ..obs.profile import PROFILER
from ..obs.runtime import RUNTIME, task_runtime
from ..obs.trace import TRACER
from ..perf import fast_path_enabled, set_fast_path
from ..pipeline import run_pipeline
from ..scenarios import Scenario, get_scenario, list_scenarios
from .results import (
    SweepRecord,
    append_jsonl,
    default_store_path,
    summary_rows,
)

__all__ = ["SweepResult", "TaskContext", "TaskResult", "Dispatch",
           "code_version", "cache_path", "run_scenario", "run_sweep",
           "load_cached_record", "store_record", "submit_scenario",
           "fold_task_result", "respawn_pool", "DEFAULT_CACHE_DIR",
           "DEFAULT_BASELINES", "DEFAULT_RETRIES", "DEFAULT_TASK_DEADLINE_S"]

DEFAULT_CACHE_DIR = ".sweep-cache"
#: Baselines evaluated per scenario; a subset of the CLI ``quality`` set to
#: keep per-scenario cost dominated by the ENV pipeline itself.
DEFAULT_BASELINES: Tuple[str, ...] = ("global-clique", "subnet")
#: Extra attempts a task gets after its first failure before quarantine.
DEFAULT_RETRIES = 2
#: Per-task wall-clock deadline; expiring it respawns the pool.
DEFAULT_TASK_DEADLINE_S = 600.0
#: Worker processes are recycled after this many tasks — bounded drift for
#: leaky native code.  A recycle exits 0 and is not a worker death.
DEFAULT_MAXTASKSPERCHILD = 256

_LOG = get_logger("sweep")

_TASK_ERRORS = REGISTRY.counter(
    "repro_sweep_task_errors_total",
    "scenario runs that produced an error record")
_TASK_RETRIES = REGISTRY.counter(
    "repro_sweep_task_retries_total",
    "pool task re-dispatches (sweep tasks and served jobs), by trigger",
    labels=("reason",))
_TASKS_QUARANTINED = REGISTRY.counter(
    "repro_sweep_tasks_quarantined_total",
    "pool tasks marked failed after exhausting their retry budget")
_POOL_RESPAWNS = REGISTRY.counter(
    "repro_sweep_pool_respawns_total",
    "worker pool teardowns forced by deadlines, timeouts or callers")
_WORKER_DEATHS = REGISTRY.counter(
    "repro_sweep_worker_deaths_total",
    "pool worker processes that exited with a non-zero code")
_TASK_DEADLINES = REGISTRY.counter(
    "repro_sweep_task_deadlines_total",
    "pool task attempts that exceeded their deadline")
_STORE_WRITE_ERRORS = REGISTRY.counter(
    "repro_sweep_store_write_errors_total",
    "cache/store writes that failed (sweep degraded, results kept in memory)")
_SWEEP_INFLIGHT = REGISTRY.gauge(
    "repro_sweep_inflight_tasks",
    "sweep tasks currently dispatched to pool workers")
_SWEEP_PENDING = REGISTRY.gauge(
    "repro_sweep_pending_tasks",
    "sweep tasks queued behind the pool's in-flight set")


@dataclass(frozen=True)
class TaskContext:
    """Caller state shipped with every pool task.

    The warm pool's workers were forked once and keep their globals, so
    *nothing* set in the parent afterwards applies to them implicitly.
    Anything per-task must ride along explicitly: the fast-path switch
    (a pool created under one setting must not silently apply it to later
    tasks submitted under another) and the submitter's trace context (the
    worker parents its spans under it and ships them back over the result
    channel).
    """

    fast_path: bool = True
    trace: Optional[Dict[str, str]] = None
    #: Non-zero arms the worker's sampling profiler at this rate for the
    #: task; its collapsed stacks ride home in the :class:`TaskResult`.
    profile_hz: int = 0
    #: 0-based retry attempt of this dispatch.  Rides with the task (rather
    #: than living in worker state) so fault plans can target "attempt 0
    #: only" deterministically across pool respawns.
    attempt: int = 0
    #: The :class:`Dispatch` attempt this task is; the worker reports it
    #: with its pid on pick-up, so a worker death fails this task only.
    #: ``0``: no dispatch is watching.
    dispatch_id: int = 0

    @classmethod
    def current(cls, attempt: int = 0) -> "TaskContext":
        """The submitting process' state at call time."""
        return cls(fast_path=fast_path_enabled(),
                   trace=TRACER.current_context(),
                   attempt=attempt)


@lru_cache(maxsize=1)
def code_version() -> str:
    """SHA-256 over every source file of the ``repro`` package.

    Any code change invalidates previously cached sweep results.
    """
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    digest = hashlib.sha256()
    sources: List[str] = []
    for dirpath, dirnames, filenames in os.walk(package_root):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        sources.extend(os.path.join(dirpath, f)
                       for f in sorted(filenames) if f.endswith(".py"))
    for source in sources:
        digest.update(os.path.relpath(source, package_root).encode("utf-8"))
        with open(source, "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()


def _run_key(period_s: float, baselines: Sequence[str]) -> str:
    """Short digest of the run parameters that shape a scenario's result."""
    payload = json.dumps({"period_s": period_s,
                          "baselines": sorted(baselines)},
                         sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:8]


def cache_path(cache_dir: str, scenario_name: str,
               period_s: float = 60.0,
               baselines: Sequence[str] = DEFAULT_BASELINES) -> str:
    """The cache file a result for ``scenario_name`` lives in.

    The key couples the scenario's content hash, the code version and the
    run parameters (period, baselines), so results recorded under different
    sweep flags are never served for one another.  Dynamic scenarios ignore
    ``baselines`` at run time (a replay has no baseline stage), so it is
    excluded from their key — a ``--baselines`` change never forces their
    expensive multi-epoch replays to re-run.
    """
    scenario = get_scenario(scenario_name)
    if isinstance(scenario, DynamicScenario):
        baselines = ()
    return os.path.join(
        cache_dir,
        f"{scenario.name}-{scenario.content_hash[:12]}-{code_version()[:12]}"
        f"-{_run_key(period_s, baselines)}.json")


def run_scenario(scenario_or_name: "Scenario | str",
                 period_s: float = 60.0,
                 baselines: Sequence[str] = DEFAULT_BASELINES) -> SweepRecord:
    """Build one scenario, run the pipeline, return its record.

    Never raises — scenario failures come back as ``status="error"``
    records (with the traceback, a structured log line and a
    ``repro_sweep_task_errors_total`` tick) — except for injected
    :class:`~repro.faults.FaultInjected` chaos, which must propagate so the
    dispatch layers exercise their *infrastructure*-failure paths rather
    than recording a deterministic scenario error.

    Accepts a :class:`Scenario` directly (what the pool workers receive, so a
    spawn-started worker never has to consult the parent's registry) or a
    registered scenario name.  Dynamic scenarios are replayed over their
    churn schedule instead of running the one-shot pipeline; their records
    carry the epoch-aware replay digest (``summary["epoch_records"]``), the
    ``baselines`` parameter does not apply to them (a replay has no baseline
    stage), and the cache key inherits the schedule identity because the
    scenario's content hash covers every churn parameter plus the base
    platform hash.
    """
    start = time.perf_counter()
    name = (scenario_or_name.name if isinstance(scenario_or_name, Scenario)
            else scenario_or_name)
    scenario = None
    try:
        scenario = (scenario_or_name if isinstance(scenario_or_name, Scenario)
                    else get_scenario(scenario_or_name))
        if isinstance(scenario, DynamicScenario):
            summary = run_replay(scenario, period_s=period_s).summary()
        else:
            with TRACER.span("pipeline.simulate", scenario=scenario.name):
                platform = scenario.build()
            summary = run_pipeline(platform, period_s=period_s,
                                   baselines=baselines).summary()
        return SweepRecord(
            scenario=scenario.name,
            family=scenario.family,
            scenario_hash=scenario.content_hash,
            code_version=code_version(),
            status="ok",
            elapsed_s=time.perf_counter() - start,
            summary=summary,
        )
    except FaultInjected:
        raise
    except Exception as exc:
        _TASK_ERRORS.inc()
        _LOG.error("event=scenario_error %s",
                   kv(scenario=name, error=f"{type(exc).__name__}: {exc}"))
        return SweepRecord(
            scenario=name,
            family=scenario.family if scenario else "unknown",
            scenario_hash=scenario.content_hash if scenario else "",
            code_version=code_version(),
            status="error",
            elapsed_s=time.perf_counter() - start,
            error=traceback.format_exc(),
        )


def _run_task(args: Tuple[Scenario, float, Tuple[str, ...], TaskContext]
              ) -> SweepRecord:
    """The task body: what a pool task runs, and the ``jobs=1`` path."""
    scenario, period_s, baselines, context = args
    # Chaos hook: adopt any env-propagated fault plan and fire worker
    # faults (kill / hang / raise) scheduled for this scenario + attempt.
    faults.activate_from_env()
    faults.inject_worker(scenario.name, attempt=context.attempt)
    # Apply the shipped per-task state (see TaskContext): the fast-path
    # switch, and — under a sampled trace — a span adopting the submitter's
    # context so the scenario's pipeline-stage spans parent correctly.
    set_fast_path(context.fast_path)
    with TRACER.adopt(context.trace, "sweep.run_scenario",
                      scenario=scenario.name, fast_path=context.fast_path):
        return run_scenario(scenario, period_s=period_s, baselines=baselines)


@dataclass
class TaskResult:
    """Everything one pool task ships home: the worker's registry, span
    ring, profiler and runtime readings are per-process, so its work stays
    invisible to the submitter until :func:`fold_task_result` folds it in.
    """

    record: SweepRecord
    #: Stored counter/histogram growth (``MetricsRegistry.delta``).
    metrics: List[Tuple]
    #: The task's spans, stamped with the worker's ``pid``.
    spans: List[Dict[str, object]]
    #: Collapsed stacks when ``TaskContext.profile_hz`` was set.
    profile: Optional[Dict[str, object]]
    #: :func:`repro.obs.runtime.task_runtime` payload (peak RSS, CPU, GC).
    runtime: Dict[str, object]


def _pool_task(args: Tuple[Scenario, float, Tuple[str, ...], TaskContext]
               ) -> TaskResult:
    """The one pool-task entrypoint, for sweeps and served jobs alike; a
    worker runs one task at a time, so the delta and spans are this task's.
    """
    context = args[3]
    # The pick-up report: one write below PIPE_BUF is atomic, so the
    # workers share the pipe without a lock.
    if _worker_pickups is not None:
        _worker_pickups.send_bytes(_PICKUP.pack(os.getpid(),
                                                context.dispatch_id))
    base = REGISTRY.stored()
    with TRACER.capture() as captured, \
            task_runtime() as runtime, \
            PROFILER.maybe(bool(context.profile_hz),
                           hz=context.profile_hz) as profile:
        record = _run_task(args)
    pid = os.getpid()
    for span in captured.spans:
        span.setdefault("attrs", {}).setdefault("pid", pid)
    return TaskResult(record, REGISTRY.delta(base), captured.spans,
                      profile.as_payload(), runtime)


def fold_task_result(result: TaskResult) -> Optional[int]:
    """Fold a pool task's telemetry into this process: the registry delta,
    the spans (ring buffer and span log — the only way worker spans reach
    the log), the ``repro_worker_*`` runtime series and any profile.
    Returns the profile samples added, ``None`` for an unprofiled task.
    """
    REGISTRY.merge(result.metrics)
    TRACER.ingest(result.spans)
    RUNTIME.ingest(result.runtime)
    if result.profile is None:
        return None
    return PROFILER.ingest(result.profile)


# -- persistent warm worker pool ---------------------------------------------
# Spawning a fresh multiprocessing pool per sweep re-pays interpreter start-up
# and module import for every call; repeated sweeps (the CLI's dynamics run
# after a static sweep, test suites, notebook loops) reuse one warm pool as
# long as the requested worker count matches.  A generation counter is bumped
# on every teardown/creation so a Dispatch holding AsyncResults can tell
# when its pool was replaced underneath it (the results will never
# complete) and re-dispatch.
#
# Worker deaths are exact.  Each worker reports ``(pid, dispatch id)`` on a
# one-way pipe as it picks a task up, and the pool lists every worker it
# starts, so the submitter reads each exit code even after the pool reaped
# the worker.  A non-zero exit fails the task that worker picked up last.
# A worker that exits non-zero before any report failed at start (its
# initializer raised) while the pool restarts it in a tight loop: once
# ``processes`` of those deaths come in a row, the pool is respawned and
# the calling Dispatch loses every task it has in flight.

#: A pick-up report, ``(pid, dispatch id)``: far below ``PIPE_BUF``.
_PICKUP = struct.Struct("!qq")

_pool: Optional[multiprocessing.pool.Pool] = None
_pool_processes = 0
_pool_maxtasks: Optional[int] = None
_pool_generation = 0
_pool_lock = threading.RLock()
#: Every worker the current pool started whose exit is not read yet.
#: Appended by the pool's maintenance thread, which must not take
#: ``_pool_lock`` (a teardown holds it while joining that thread).
_pool_workers: List[multiprocessing.process.BaseProcess] = []
#: Both ends of the current pool's pick-up pipe (read end first).
_pool_pickups: Optional[Tuple[Connection, Connection]] = None
#: pid -> the dispatch id that worker picked up last.
_picked: Dict[int, int] = {}
#: dispatch id -> how its worker died under it, until its Dispatch reads it.
_lost: Dict[int, str] = {}
#: Non-zero exits without a pick-up report since the last report.
_start_deaths = 0
_dispatch_ids = itertools.count(1)
#: In a pool worker: the write end of the pick-up pipe.
_worker_pickups: Optional[Connection] = None


class _Pool(multiprocessing.pool.Pool):
    """A pool that lists every worker it starts in ``_pool_workers``."""

    @staticmethod
    def Process(ctx, *args, **kwds):
        process = ctx.Process(*args, **kwds)
        _pool_workers.append(process)
        return process


def _pool_initializer(pickups: Connection) -> None:
    global _worker_pickups
    # Runs in each worker at start: mark the process as killable/hangable by
    # the fault layer, and adopt any env-propagated fault plan eagerly.
    faults.mark_worker_process()
    faults.activate_from_env()
    # Worker spans travel home in the TaskResult for the submitter to log
    # and warn about: drop the span log and slow-span warning inherited.
    TRACER.configure(log_path="", slow_span_s=0)
    _worker_pickups = pickups


def _reap_workers() -> None:
    """Read worker exits and pick-up reports; call under ``_pool_lock``.

    Exit codes are read before the pipe is drained: a worker writes its
    report before it can die, so every dead worker's last report is in.
    """
    global _start_deaths
    exited = [(worker, worker.exitcode) for worker in list(_pool_workers)]
    reader = _pool_pickups[0]
    while reader.poll():
        pid, dispatch_id = _PICKUP.unpack(reader.recv_bytes())
        _picked[pid] = dispatch_id
        _start_deaths = 0
    for worker, code in exited:
        if code is None:
            continue
        _pool_workers.remove(worker)
        dispatch_id = _picked.pop(worker.pid, None)
        if code == 0:                # a maxtasksperchild recycle
            continue
        _WORKER_DEATHS.inc()
        _LOG.warning("event=worker_death %s",
                     kv(pid=worker.pid, exitcode=code,
                        dispatch=dispatch_id, generation=_pool_generation))
        if dispatch_id is not None:
            _lost[dispatch_id] = f"worker {worker.pid} exited with code {code}"
        else:
            _start_deaths += 1


def _lost_dispatches(dispatch_ids: Sequence[int]) -> Dict[int, str]:
    """Which of ``dispatch_ids`` lost their worker, and how; all of them
    when the pool's workers keep dying before they pick a task up."""
    with _pool_lock:
        if _pool is not None:
            _reap_workers()
            if _start_deaths >= _pool_processes:
                detail = (f"{_start_deaths} pool workers exited before "
                          f"picking a task up")
                respawn_pool("worker-start")
                for dispatch_id in dispatch_ids:
                    _lost.setdefault(dispatch_id, detail)
        return {i: _lost.pop(i) for i in dispatch_ids if i in _lost}


def _shutdown_pool() -> None:
    global _pool, _pool_processes, _pool_maxtasks, _pool_generation, \
        _pool_pickups, _start_deaths
    with _pool_lock:
        if _pool is not None:
            _reap_workers()          # deaths before the teardown still count
            _pool.terminate()
            _pool.join()
            _pool_workers.clear()    # terminated on purpose: not deaths
            _picked.clear()
            _start_deaths = 0
            for end in _pool_pickups:
                end.close()
            _pool = None
            _pool_pickups = None
            _pool_processes = 0
            _pool_maxtasks = None
            _pool_generation += 1


atexit.register(_shutdown_pool)


def _warm_pool(processes: int,
               maxtasksperchild: Optional[int] = DEFAULT_MAXTASKSPERCHILD
               ) -> multiprocessing.pool.Pool:
    """The shared pool, recreated when the worker count changes.

    ``jobs`` is a concurrency *cap*, not a hint: reusing a larger warm pool
    for a smaller request would run more pipelines at once than the caller
    allowed (oversubscribing a memory-heavy batch).  Only an exact match
    (worker count *and* recycle policy) reuses the warm workers — repeated
    sweeps with stable parameters, the case warmth pays off in, still hit
    it.
    """
    global _pool, _pool_processes, _pool_maxtasks, _pool_generation, \
        _pool_pickups
    with _pool_lock:
        if _pool is not None and (_pool_processes != processes
                                  or _pool_maxtasks != maxtasksperchild):
            _shutdown_pool()
        if _pool is None:
            # A Connection, unlike a raw fd, also reaches spawned workers.
            _pool_pickups = multiprocessing.Pipe(duplex=False)
            _pool = _Pool(processes=processes,
                          initializer=_pool_initializer,
                          initargs=(_pool_pickups[1],),
                          maxtasksperchild=maxtasksperchild)
            _pool_processes = processes
            _pool_maxtasks = maxtasksperchild
            _pool_generation += 1
        return _pool


def respawn_pool(reason: str) -> None:
    """Tear the shared pool down so its next use starts fresh workers.

    The recovery hammer for hung or poisoned workers (a pool task cannot
    be cancelled individually).  In-flight tasks die with their workers;
    a :class:`Dispatch` requeues its own.  A no-op without a live pool.
    """
    with _pool_lock:
        if _pool is None:
            return
        _POOL_RESPAWNS.inc()
        _LOG.warning("event=pool_respawn %s",
                     kv(reason=reason, generation=_pool_generation,
                        processes=_pool_processes))
        _shutdown_pool()


@dataclass
class SweepResult:
    """Aggregate outcome of one :func:`run_sweep` invocation."""

    records: List[SweepRecord] = field(default_factory=list)
    out_path: Optional[str] = None
    elapsed_s: float = 0.0

    @property
    def cache_hits(self) -> int:
        return sum(1 for r in self.records if r.cached)

    @property
    def errors(self) -> List[SweepRecord]:
        return [r for r in self.records if not r.ok]

    def summary_table(self) -> str:
        return render_table(summary_rows(self.records))


def _load_cached(path: str) -> Optional[SweepRecord]:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            record = SweepRecord.from_json(handle.read())
    except (OSError, ValueError, TypeError):
        return None
    # A cached failure is not worth keeping: re-run the scenario.
    return record if record.ok else None


def load_cached_record(cache_dir: str, scenario_name: str,
                       period_s: float = 60.0,
                       baselines: Sequence[str] = DEFAULT_BASELINES,
                       ) -> Optional[SweepRecord]:
    """The cached record of one scenario, or ``None`` on a miss.

    The public face of the sweep cache for other consumers (the serving
    layer's job queue checks it before dispatching pipeline work); corrupt
    entries and cached failures count as misses, exactly as in
    :func:`run_sweep`.
    """
    return _load_cached(cache_path(cache_dir, scenario_name,
                                   period_s=period_s, baselines=baselines))


def store_record(cache_dir: str, record: SweepRecord,
                 period_s: float = 60.0,
                 baselines: Sequence[str] = DEFAULT_BASELINES,
                 out_path: Optional[str] = None) -> str:
    """Persist one freshly run record the way :func:`run_sweep` does.

    Successful records land in the per-scenario cache (atomically, so a
    later sweep of the same scenario is a cache hit) and every record is
    appended to the JSONL result store.  Returns the store path.  Raises
    ``OSError`` when the disk refuses — callers that must not fail (the
    serving layer) catch it and fall back to memory.
    """
    if record.ok and not record.cached:
        os.makedirs(cache_dir, exist_ok=True)
        write_atomic(cache_path(cache_dir, record.scenario, period_s=period_s,
                                baselines=baselines),
                     record.to_json() + "\n", suffix=".json")
    out_path = out_path or default_store_path(cache_dir)
    append_jsonl(out_path, [record])
    return out_path


def submit_scenario(scenario_name: str, processes: int,
                    period_s: float = 60.0,
                    baselines: Sequence[str] = DEFAULT_BASELINES,
                    trace_ctx: Optional[Dict[str, str]] = None,
                    profile_hz: int = 0,
                    attempt: int = 0,
                    dispatch_id: int = 0,
                    ) -> "multiprocessing.pool.AsyncResult":
    """Dispatch one scenario run onto the shared warm pool, asynchronously.

    The one submit primitive: :class:`Dispatch` — and through it the sweep
    and the serving layer's job queue — submits every pool task here, so
    HTTP-submitted runs execute in the *same* warm worker pool the sweep
    uses, one pool per process.  The worker never raises for *scenario*
    failures (they come back as error records); ``AsyncResult.get()`` can
    raise for injected faults, and a result whose worker died never
    arrives — the deadlines, retries and death detection that handle both
    live in :class:`Dispatch`.  The async result yields a
    :class:`TaskResult` for :func:`fold_task_result`.  ``trace_ctx``
    overrides the submitter's ambient trace context (the serving layer
    captures it on the request thread, before the job reaches the
    dispatcher); ``attempt`` labels retry dispatches for deterministic
    fault targeting; ``dispatch_id`` is what the worker reports on pick-up.
    """
    scenario = get_scenario(scenario_name)
    context = TaskContext(fast_path=fast_path_enabled(),
                          trace=trace_ctx or TRACER.current_context(),
                          profile_hz=profile_hz,
                          attempt=attempt,
                          dispatch_id=dispatch_id)
    with _pool_lock:
        pool = _warm_pool(max(1, processes))
        return pool.apply_async(
            _pool_task, ((scenario, period_s, tuple(baselines), context),))


# -- crash-resilient dispatch ---------------------------------------------------

#: Sweep poll interval; small enough that deadlines in the 100ms range
#: (chaos tests) are honoured promptly.
_POLL_S = 0.01
#: Base of the retry backoff ladder: 0.05, 0.1, 0.2, ... capped at 2s,
#: scaled by seeded jitter in [0.5, 1.5).
_BACKOFF_BASE_S = 0.05
_BACKOFF_CAP_S = 2.0
_BACKOFF_SEED = 0x5EED


@dataclass
class _Task:
    """Book-keeping for one scenario making its way through the pool."""

    scenario: Scenario
    #: The submitter's trace context and profiler rate for every attempt.
    trace_ctx: Optional[Dict[str, str]] = None
    profile_hz: int = 0
    #: Dispatches started (== 1 + retries used).  Also the source of the
    #: 0-based ``TaskContext.attempt`` of the next dispatch.
    attempts: int = 0
    #: The live dispatch: its id, its one AsyncResult (``None`` while the
    #: task is queued) and the pool generation it was submitted to.
    dispatch_id: int = 0
    handle: Optional["multiprocessing.pool.AsyncResult"] = None
    generation: int = 0
    #: Monotonic instant the live dispatch expires.
    deadline: float = 0.0
    #: Monotonic instant before which a requeued task must not redispatch
    #: (exponential backoff).
    not_before: float = 0.0
    #: Once settled: the worker's record, or the quarantine record.
    record: Optional[SweepRecord] = None
    #: The last failed attempt's reason label and detail; ``failure`` is
    #: ``None`` once an attempt succeeded.
    failure: Optional[str] = None
    detail: str = ""
    #: Profile samples the settled task folded in (``None``: unprofiled).
    profile_samples: Optional[int] = None

    @property
    def name(self) -> str:
        return self.scenario.name


def _backoff_s(attempts: int, rng: random.Random) -> float:
    base = min(_BACKOFF_CAP_S, _BACKOFF_BASE_S * (2 ** max(0, attempts - 1)))
    return base * (0.5 + rng.random())


def _book_failure(task: _Task, reason: str, detail: str,
                  retries: int) -> bool:
    """Book one failed attempt of ``task``; ``True`` when it may retry.

    ``reason`` (``crash``, ``deadline`` or ``worker-death``) labels the
    retry counter; ``detail`` — an exception text, say — goes to the log
    line and the quarantine record only.  Out of budget, the task is
    quarantined: ``task.record`` becomes a ``status="failed"`` record.
    """
    task.failure, task.detail = reason, detail
    if task.attempts > retries:
        _TASKS_QUARANTINED.inc()
        _LOG.error("event=task_quarantined %s",
                   kv(scenario=task.name, attempts=task.attempts,
                      reason=reason, detail=detail))
        task.record = SweepRecord(
            scenario=task.name,
            family=task.scenario.family,
            scenario_hash=task.scenario.content_hash,
            code_version=code_version(),
            status="failed",
            error=(f"quarantined after {task.attempts} attempts "
                   f"(last failure: {detail})"))
        return False
    _TASK_RETRIES.labels(reason=reason).inc()
    _LOG.warning("event=task_retry %s",
                 kv(scenario=task.name, attempt=task.attempts,
                    reason=reason, detail=detail))
    return True


class Dispatch:
    """One caller's scenarios over the warm pool, stepped without blocking.

    :meth:`add` queues a scenario; each :meth:`step` settles what it can
    and refills the window (at most ``processes`` tasks in flight, so a
    deadline measures runtime, not queue wait).  ``run_sweep`` steps one
    between ``time.sleep`` polls, a served job between ``await
    asyncio.sleep`` polls, so no thread waits on a worker.

    * **crash** — a dispatch whose result raises (an injected fault) is
      retried with backoff;
    * **worker death** — a worker that exits with a non-zero code fails
      exactly the task it picked up last; the tasks beside it run on.
      When ``processes`` workers in a row die before picking a task up,
      the pool is respawned (``worker-start``) and every task this
      dispatch has in flight fails as a worker death;
    * **deadline** — a task outliving ``deadline_s`` cannot be cancelled
      individually, so the pool is respawned: the expired task burns a
      retry, and every task the respawn killed — this dispatch's or
      another's — requeues for free (``pool-respawn``);
    * **quarantine** — after ``retries + 1`` failed attempts a task
      settles with a ``status="failed"`` record.
    """

    def __init__(self, processes: int, period_s: float = 60.0,
                 baselines: Sequence[str] = DEFAULT_BASELINES,
                 retries: int = DEFAULT_RETRIES,
                 deadline_s: float = DEFAULT_TASK_DEADLINE_S) -> None:
        self.processes = max(1, processes)
        self.period_s = period_s
        self.baselines = tuple(baselines)
        self.retries = retries
        self.deadline_s = deadline_s
        self.pending: "deque[_Task]" = deque()
        self.inflight: List[_Task] = []
        self._rng = random.Random(_BACKOFF_SEED)

    @property
    def active(self) -> int:
        """Tasks added and not settled yet."""
        return len(self.pending) + len(self.inflight)

    def add(self, scenario_name: str,
            trace_ctx: Optional[Dict[str, str]] = None,
            profile_hz: int = 0) -> _Task:
        """Queue one run of ``scenario_name``; returns its task."""
        task = _Task(get_scenario(scenario_name), trace_ctx=trace_ctx,
                     profile_hz=profile_hz)
        self.pending.append(task)
        return task

    def step(self) -> List[_Task]:
        """Advance every task once; returns the tasks that settled."""
        settled: List[_Task] = []
        if self.inflight:
            now = time.monotonic()
            expired = [t for t in self.inflight
                       if now > t.deadline and not t.handle.ready()]
            if expired:
                _TASK_DEADLINES.inc(len(expired))
                respawn_pool("task-deadline")
            lost = _lost_dispatches([t.dispatch_id for t in self.inflight])
            for task in list(self.inflight):
                if task.handle.ready():
                    try:
                        result = task.handle.get()
                    except Exception as exc:   # raised in the worker
                        self._fail(task, "crash",
                                   f"{type(exc).__name__}: {exc}", settled)
                    else:
                        task.profile_samples = fold_task_result(result)
                        task.record, task.failure = result.record, None
                        settled.append(task)
                elif task in expired:
                    self._fail(task, "deadline",
                               f"exceeded the {self.deadline_s:g}s deadline",
                               settled)
                elif task.dispatch_id in lost:
                    self._fail(task, "worker-death", lost[task.dispatch_id],
                               settled)
                elif task.generation != _pool_generation:
                    # The pool was respawned under it: requeue for free.
                    task.attempts -= 1
                    _TASK_RETRIES.labels(reason="pool-respawn").inc()
                    self.pending.append(task)
                else:
                    continue
                self.inflight.remove(task)
                task.handle = None
        self._fill()
        return settled

    def _fail(self, task: _Task, reason: str, detail: str,
              settled: List[_Task]) -> None:
        if _book_failure(task, reason, detail, self.retries):
            task.not_before = time.monotonic() + _backoff_s(task.attempts,
                                                            self._rng)
            self.pending.append(task)
        else:
            settled.append(task)

    def _fill(self) -> None:
        """Dispatch queued tasks up to the window, passing over those still
        backing off so they don't hold up the ready ones behind them."""
        now = time.monotonic()
        for _ in range(len(self.pending)):
            if len(self.inflight) >= self.processes:
                return
            task = self.pending.popleft()
            if task.not_before > now:
                self.pending.append(task)
                continue
            task.attempts += 1
            with _pool_lock:
                task.dispatch_id = next(_dispatch_ids)
                task.handle = submit_scenario(
                    task.name, self.processes, period_s=self.period_s,
                    baselines=self.baselines, trace_ctx=task.trace_ctx,
                    profile_hz=task.profile_hz, attempt=task.attempts - 1,
                    dispatch_id=task.dispatch_id)
                task.generation = _pool_generation
            task.deadline = time.monotonic() + self.deadline_s
            self.inflight.append(task)


def _run_parallel(todo: Sequence[str], processes: int, period_s: float,
                  baselines: Sequence[str], retries: int,
                  task_deadline_s: float) -> List[SweepRecord]:
    """Step one :class:`Dispatch` over ``todo`` until every task settles."""
    dispatch = Dispatch(processes, period_s=period_s, baselines=baselines,
                        retries=retries, deadline_s=task_deadline_s)
    for name in todo:
        dispatch.add(name)
    done: List[SweepRecord] = []
    while dispatch.active:
        done.extend(task.record for task in dispatch.step())
        _SWEEP_INFLIGHT.set(len(dispatch.inflight))
        _SWEEP_PENDING.set(len(dispatch.pending))
        if dispatch.active:
            time.sleep(_POLL_S)
    return done


def _run_serial(todo: Sequence[str], period_s: float,
                baselines: Sequence[str], retries: int) -> List[SweepRecord]:
    """The in-process path, booking failures as :class:`Dispatch` does.

    Only ``raise`` faults fire here (this process must not kill or hang
    itself), so the retry loop is a plain try/except around the task body,
    which records its telemetry straight into this process.
    """
    rng = random.Random(_BACKOFF_SEED)
    done: List[SweepRecord] = []
    for name in todo:
        task = _Task(get_scenario(name))
        while task.record is None:
            task.attempts += 1
            context = TaskContext.current(attempt=task.attempts - 1)
            try:
                task.record = _run_task((task.scenario, period_s,
                                         tuple(baselines), context))
            except FaultInjected as exc:
                if _book_failure(task, "crash",
                                 f"{type(exc).__name__}: {exc}", retries):
                    time.sleep(_backoff_s(task.attempts, rng))
        done.append(task.record)
    return done


def run_sweep(names: Optional[Sequence[str]] = None,
              pattern: Optional[str] = None,
              jobs: int = 1,
              cache_dir: str = DEFAULT_CACHE_DIR,
              rerun: bool = False,
              out_path: Optional[str] = None,
              period_s: float = 60.0,
              baselines: Sequence[str] = DEFAULT_BASELINES,
              retries: int = DEFAULT_RETRIES,
              task_deadline_s: float = DEFAULT_TASK_DEADLINE_S
              ) -> SweepResult:
    """Run the pipeline over many scenarios, with caching and parallelism.

    Parameters
    ----------
    names:
        Explicit scenario names; defaults to every registered scenario.
    pattern:
        Substring filter on name/family/tags, applied to the selection.
    jobs:
        Worker processes; ``1`` runs in-process (easier to debug/profile).
    cache_dir:
        Where per-scenario result files live; created on demand.
    rerun:
        Ignore (and overwrite) existing cache entries.
    out_path:
        JSONL result store to append this run's records to; defaults to
        ``<cache_dir>/results.jsonl``.
    retries:
        Extra attempts a task gets after an *infrastructure* failure (lost
        worker, deadline, injected fault) before being quarantined as a
        ``status="failed"`` record.  Deterministic scenario errors are
        never retried — rerunning broken code is waste.
    task_deadline_s:
        Per-task wall-clock budget; a task outliving it forces a pool
        respawn and burns one of its retries.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    if retries < 0:
        raise ValueError("retries must be >= 0")
    if task_deadline_s <= 0:
        raise ValueError("task_deadline_s must be > 0")
    start = time.perf_counter()
    if names is None:
        selected = [s.name for s in list_scenarios(pattern)]
    else:
        selected = [get_scenario(n).name for n in names]
        if pattern:
            selected = [n for n in selected
                        if get_scenario(n).matches(pattern)]
        # Duplicate names would run the scenario twice and append duplicate
        # records to the result store; keep the first occurrence only.
        selected = list(dict.fromkeys(selected))
    if not selected:
        raise ValueError("no scenarios selected "
                         f"(pattern={pattern!r}, names={names!r})")
    os.makedirs(cache_dir, exist_ok=True)

    def _path(name: str) -> str:
        return cache_path(cache_dir, name, period_s=period_s,
                          baselines=baselines)

    records: Dict[str, SweepRecord] = {}
    todo: List[str] = []
    for name in selected:
        cached = None if rerun else _load_cached(_path(name))
        if cached is not None:
            cached.cached = True
            records[name] = cached
        else:
            todo.append(name)

    if jobs == 1 or len(todo) <= 1:
        fresh = _run_serial(todo, period_s, baselines, retries)
    else:
        # Size by the requested cap alone: a pool never runs more tasks
        # than are queued, and a todo-dependent size would tear the warm
        # pool down whenever the cache state changes.
        try:
            fresh = _run_parallel(todo, jobs, period_s, baselines, retries,
                                  task_deadline_s)
        except Exception:
            # A broken engine (corrupted pipe, unexpected dispatch error)
            # must not poison later sweeps: drop the pool so the next call
            # starts a fresh one.
            _shutdown_pool()
            raise

    for record in fresh:
        records[record.scenario] = record
        if record.ok:
            try:
                # Atomic: a killed process must not leave a truncated cache
                # entry.
                write_atomic(_path(record.scenario), record.to_json() + "\n",
                             suffix=".json")
            except OSError as exc:
                # Degraded, not dead: the sweep still returns (and stores
                # below, if the store path is healthier than the cache).
                _STORE_WRITE_ERRORS.inc()
                _LOG.warning("event=cache_write_error %s",
                             kv(scenario=record.scenario, error=str(exc)))

    ordered = [records[name] for name in selected]
    out_path = out_path or default_store_path(cache_dir)
    try:
        append_jsonl(out_path, ordered)
    except OSError as exc:
        _STORE_WRITE_ERRORS.inc()
        _LOG.warning("event=store_append_error %s",
                     kv(path=out_path, records=len(ordered),
                        error=str(exc)))
    return SweepResult(records=ordered, out_path=out_path,
                       elapsed_s=time.perf_counter() - start)
