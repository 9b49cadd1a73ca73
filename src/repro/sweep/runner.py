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

Crash resilience (PR 8): parallel dispatch is per-task ``apply_async`` —
slightly more IPC than chunked ``imap_unordered``, but each task gets a
deadline, a retry budget and an owner that can observe its fate.  A worker
killed mid-task (OOM, segfault, injected fault) no longer wedges the sweep:
the pool's maintenance thread replaces the process, the engine notices the
death by polling worker pids and re-dispatches in-flight tasks
(first-completed-dispatch-wins, so ``maxtasksperchild`` recycling false
positives are harmless), a hung task trips its per-task deadline, which
respawns the pool and requeues the innocent bystanders without burning
their retry budget.  Retries back off exponentially with seeded jitter; a
task that exhausts ``retries`` is quarantined as a ``status="failed"``
record instead of sinking the sweep.  Every retry, respawn, death,
deadline and quarantine is a :mod:`repro.obs` counter plus a structured
log line.
"""

from __future__ import annotations

import atexit
import hashlib
import json
import multiprocessing
import os
import random
import threading
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Set, Tuple

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

__all__ = ["SweepResult", "TaskContext", "TaskResult", "code_version",
           "cache_path", "run_scenario", "run_sweep", "load_cached_record",
           "store_record", "submit_scenario", "fold_task_result",
           "respawn_pool", "pool_generation",
           "worker_deaths", "DEFAULT_CACHE_DIR", "DEFAULT_BASELINES",
           "DEFAULT_RETRIES", "DEFAULT_TASK_DEADLINE_S"]

DEFAULT_CACHE_DIR = ".sweep-cache"
#: Baselines evaluated per scenario; a subset of the CLI ``quality`` set to
#: keep per-scenario cost dominated by the ENV pipeline itself.
DEFAULT_BASELINES: Tuple[str, ...] = ("global-clique", "subnet")
#: Extra attempts a task gets after its first failure before quarantine.
DEFAULT_RETRIES = 2
#: Per-task wall-clock deadline; expiring it respawns the pool.
DEFAULT_TASK_DEADLINE_S = 600.0
#: Worker processes are recycled after this many tasks — bounded drift for
#: leaky native code, and a standing exercise of the death-tolerant
#: dispatch path.
DEFAULT_MAXTASKSPERCHILD = 256

_LOG = get_logger("sweep")

_TASK_ERRORS = REGISTRY.counter(
    "repro_sweep_task_errors_total",
    "scenario runs that produced an error record")
_TASK_RETRIES = REGISTRY.counter(
    "repro_sweep_task_retries_total",
    "sweep task re-dispatches, by trigger",
    labels=("reason",))
_TASKS_QUARANTINED = REGISTRY.counter(
    "repro_sweep_tasks_quarantined_total",
    "sweep tasks marked failed after exhausting their retry budget")
_POOL_RESPAWNS = REGISTRY.counter(
    "repro_sweep_pool_respawns_total",
    "worker pool teardowns forced by deadlines, timeouts or callers")
_WORKER_DEATHS = REGISTRY.counter(
    "repro_sweep_worker_deaths_total",
    "pool worker processes observed to have disappeared")
_TASK_DEADLINES = REGISTRY.counter(
    "repro_sweep_task_deadlines_total",
    "sweep tasks that exceeded their per-task deadline")
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
# on every teardown/creation so dispatchers holding AsyncResults can tell
# when their pool was replaced underneath them (the results will never
# complete) and re-dispatch.

_pool: Optional[multiprocessing.pool.Pool] = None
_pool_processes = 0
_pool_maxtasks: Optional[int] = None
_pool_generation = 0
_pool_pids: Set[int] = set()
_pool_deaths = 0
_pool_lock = threading.RLock()


def _pool_initializer() -> None:
    # Runs in each worker at start: mark the process as killable/hangable by
    # the fault layer, and adopt any env-propagated fault plan eagerly.
    faults.mark_worker_process()
    faults.activate_from_env()
    # Worker spans travel home in the TaskResult for the submitter to log
    # and warn about: drop the span log and slow-span warning inherited.
    TRACER.configure(log_path="", slow_span_s=0)


def _shutdown_pool() -> None:
    global _pool, _pool_processes, _pool_maxtasks, _pool_generation
    with _pool_lock:
        if _pool is not None:
            _pool_pids.clear()       # terminated on purpose: not "deaths"
            _pool.terminate()
            _pool.join()
            _pool = None
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
    global _pool, _pool_processes, _pool_maxtasks, _pool_generation
    with _pool_lock:
        if _pool is not None and (_pool_processes != processes
                                  or _pool_maxtasks != maxtasksperchild):
            _shutdown_pool()
        if _pool is None:
            _pool = multiprocessing.Pool(processes=processes,
                                         initializer=_pool_initializer,
                                         maxtasksperchild=maxtasksperchild)
            _pool_processes = processes
            _pool_maxtasks = maxtasksperchild
            _pool_generation += 1
            _pool_pids.clear()
            _pool_pids.update(p.pid for p in _pool._pool)
        return _pool


def pool_generation() -> int:
    """Current pool generation; bumped on every teardown *and* creation.

    An ``AsyncResult`` obtained under one generation is dead the moment the
    generation changes — its worker was terminated, so it will never become
    ready.  Dispatchers snapshot the generation at submit time and compare.
    """
    with _pool_lock:
        return _pool_generation


def respawn_pool(reason: str) -> None:
    """Tear the shared pool down so its next use starts fresh workers.

    The recovery hammer for hung or poisoned workers (a pool task cannot
    be cancelled individually).  In-flight tasks die with their workers —
    callers requeue what they still care about.  A no-op without a live
    pool.
    """
    with _pool_lock:
        if _pool is None:
            return
        _POOL_RESPAWNS.inc()
        _LOG.warning("event=pool_respawn %s",
                     kv(reason=reason, generation=_pool_generation,
                        processes=_pool_processes))
        _shutdown_pool()


def worker_deaths() -> int:
    """Cumulative count of pool worker processes observed to have vanished.

    Poll-based: compares the live worker pid set against the last poll.
    ``maxtasksperchild`` recycling also replaces pids, so a "death" here is
    a *hint* (redispatch in-flight work, first completion wins), never a
    verdict.  Deliberate teardowns don't count.
    """
    global _pool_deaths
    with _pool_lock:
        if _pool is None:
            return _pool_deaths
        live = {p.pid for p in _pool._pool}
        gone = _pool_pids - live
        if gone:
            _pool_deaths += len(gone)
            _WORKER_DEATHS.inc(len(gone))
            _LOG.warning("event=worker_death %s",
                         kv(pids=",".join(str(p) for p in sorted(gone)),
                            generation=_pool_generation))
        _pool_pids.clear()
        _pool_pids.update(live)
        return _pool_deaths


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

    def record_for(self, scenario: str) -> SweepRecord:
        for record in self.records:
            if record.scenario == scenario:
                return record
        raise KeyError(scenario)

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
                    ) -> "multiprocessing.pool.AsyncResult":
    """Dispatch one scenario run onto the shared warm pool, asynchronously.

    Used by the serving layer (:mod:`repro.serve.jobs`): HTTP-submitted runs
    execute in the *same* warm worker pool the sweep engine uses — one pool
    per process, never a second one — and the caller polls the returned
    :class:`~multiprocessing.pool.AsyncResult` without blocking an event
    loop.  The worker never raises for *scenario* failures (they come back
    as error records), but ``AsyncResult.get()`` can raise for
    infrastructure failures (injected faults, a worker lost mid-task) —
    callers guard it and snapshot :func:`pool_generation` at submit time to
    detect a pool replaced underneath them.  The async result yields a
    :class:`TaskResult` for :func:`fold_task_result`.
    ``trace_ctx`` overrides the submitter's ambient trace context (the
    serving layer captures it on the request thread, before the job reaches
    the dispatcher); ``attempt`` labels retry dispatches for deterministic
    fault targeting.
    """
    scenario = get_scenario(scenario_name)
    context = TaskContext(fast_path=fast_path_enabled(),
                          trace=trace_ctx or TRACER.current_context(),
                          profile_hz=profile_hz,
                          attempt=attempt)
    with _pool_lock:
        pool = _warm_pool(max(1, processes))
        return pool.apply_async(
            _pool_task, ((scenario, period_s, tuple(baselines), context),))


# -- crash-resilient parallel dispatch ----------------------------------------

#: Engine poll interval; small enough that deadlines in the 100ms range
#: (chaos tests) are honoured promptly.
_POLL_S = 0.01
#: Base of the retry backoff ladder: 0.05, 0.1, 0.2, ... capped at 2s,
#: scaled by seeded jitter in [0.5, 1.5).
_BACKOFF_BASE_S = 0.05
_BACKOFF_CAP_S = 2.0


@dataclass
class _Task:
    """Book-keeping for one scenario making its way through the pool."""

    scenario: Scenario
    #: Dispatches started (== 1 + retries used).  Also the source of the
    #: 0-based ``TaskContext.attempt`` of the next dispatch.
    attempts: int = 0
    #: Live dispatches as ``(pool generation at submit, AsyncResult)``.
    #: Usually one; a worker-death redispatch makes it two, and the first
    #: to complete wins.
    handles: List[Tuple[int, "multiprocessing.pool.AsyncResult"]] = \
        field(default_factory=list)
    #: Monotonic instant the newest dispatch expires.
    deadline: float = 0.0
    #: Monotonic instant before which a requeued task must not redispatch
    #: (exponential backoff).
    not_before: float = 0.0

    @property
    def name(self) -> str:
        return self.scenario.name


def _quarantine_record(task: _Task, reason: str) -> SweepRecord:
    return SweepRecord(
        scenario=task.scenario.name,
        family=task.scenario.family,
        scenario_hash=task.scenario.content_hash,
        code_version=code_version(),
        status="failed",
        error=(f"quarantined after {task.attempts} attempts "
               f"(last failure: {reason})"),
    )


def _backoff_s(attempts: int, rng: random.Random) -> float:
    base = min(_BACKOFF_CAP_S, _BACKOFF_BASE_S * (2 ** max(0, attempts - 1)))
    return base * (0.5 + rng.random())


def _run_parallel(todo: Sequence[str], processes: int, period_s: float,
                  baselines: Sequence[str], retries: int,
                  task_deadline_s: float) -> List[SweepRecord]:
    """Dispatch ``todo`` over the warm pool, surviving crashes and hangs.

    Windowed per-task ``apply_async`` (at most ``processes`` primary
    dispatches in flight, so a task's deadline measures *runtime*, not
    queue wait), with:

    * **crash retry** — a dispatch whose ``get()`` raises (injected fault,
      worker lost with a task mid-pickle) requeues with backoff until the
      budget runs out, then quarantines;
    * **death redispatch** — when worker pids vanish, every in-flight task
      with budget gets a second concurrent dispatch; whichever completes
      first wins (harmless for ``maxtasksperchild`` false positives);
    * **deadline respawn** — a task outliving ``task_deadline_s`` cannot be
      cancelled individually, so the pool is respawned; the expired task
      burns a retry, innocent in-flight tasks requeue for free;
    * **quarantine** — after ``retries + 1`` failed attempts a task becomes
      a ``status="failed"`` record and the sweep moves on.
    """
    rng = random.Random(0x5EED ^ len(todo))
    pending: "deque[_Task]" = deque(_Task(scenario=get_scenario(name))
                                    for name in todo)
    inflight: List[_Task] = []
    done: List[SweepRecord] = []
    deaths_seen = worker_deaths()

    def dispatch(task: _Task, reason: Optional[str] = None) -> None:
        task.attempts += 1
        if reason is not None:
            _TASK_RETRIES.labels(reason=reason).inc()
            _LOG.warning("event=task_retry %s",
                         kv(scenario=task.name, attempt=task.attempts - 1,
                            reason=reason))
        context = TaskContext.current(attempt=task.attempts - 1)
        with _pool_lock:
            pool = _warm_pool(processes)
            generation = _pool_generation
            handle = pool.apply_async(
                _pool_task,
                ((task.scenario, period_s, tuple(baselines), context),))
        task.handles.append((generation, handle))
        task.deadline = time.monotonic() + task_deadline_s

    def settle_failure(task: _Task, reason: str) -> None:
        """A task lost its last live dispatch: requeue or quarantine."""
        task.handles.clear()
        if task.attempts >= retries + 1:
            _TASKS_QUARANTINED.inc()
            _LOG.error("event=task_quarantined %s",
                       kv(scenario=task.name, attempts=task.attempts,
                          reason=reason))
            done.append(_quarantine_record(task, reason))
        else:
            _TASK_RETRIES.labels(reason=reason).inc()
            task.not_before = time.monotonic() + _backoff_s(task.attempts,
                                                            rng)
            _LOG.warning("event=task_retry %s",
                         kv(scenario=task.name, attempt=task.attempts,
                            reason=reason, backoff=True))
            pending.append(task)

    while pending or inflight:
        now = time.monotonic()
        _SWEEP_INFLIGHT.set(len(inflight))
        _SWEEP_PENDING.set(len(pending))

        # Dispatch up to the window, rotating past backoff-gated heads so
        # one cooling-down task doesn't starve the ready ones behind it.
        considered = 0
        while pending and len(inflight) < processes \
                and considered < len(pending) + 1:
            considered += 1
            task = pending[0]
            if task.not_before > now:
                pending.rotate(-1)
                continue
            pending.popleft()
            dispatch(task)
            inflight.append(task)

        if not inflight:
            time.sleep(_POLL_S)
            continue

        generation_now = pool_generation()
        progressed = False

        # Collect: first ready dispatch of each task wins; crashed or
        # stale-generation dispatches are dropped.
        for task in list(inflight):
            result: Optional[TaskResult] = None
            crash: Optional[str] = None
            for entry in list(task.handles):
                gen, handle = entry
                if gen != generation_now:
                    task.handles.remove(entry)
                    continue
                if not handle.ready():
                    continue
                try:
                    result = handle.get()
                except Exception as exc:   # noqa: BLE001 — worker lost /
                    # injected fault: an infrastructure failure, retryable.
                    task.handles.remove(entry)
                    crash = f"{type(exc).__name__}: {exc}"
                    continue
                break
            if result is not None:
                fold_task_result(result)
                inflight.remove(task)
                done.append(result.record)
                progressed = True
            elif not task.handles:
                inflight.remove(task)
                settle_failure(task, crash or "pool-respawn")
                progressed = True

        if progressed:
            continue
        now = time.monotonic()

        # Hangs: a task past its deadline can only be stopped by killing
        # its worker, and the pool only dies whole.  Innocent bystanders
        # requeue without burning budget (their dispatch never misbehaved).
        expired = [t for t in inflight if now > t.deadline]
        if expired:
            _TASK_DEADLINES.inc(len(expired))
            for task in expired:
                _LOG.warning("event=task_deadline %s",
                             kv(scenario=task.name, attempt=task.attempts - 1,
                                deadline_s=task_deadline_s))
            respawn_pool("task-deadline")
            deaths_seen = worker_deaths()
            for task in list(inflight):
                inflight.remove(task)
                if task in expired:
                    settle_failure(task, "deadline")
                else:
                    task.attempts = max(0, task.attempts - 1)
                    task.handles.clear()
                    _TASK_RETRIES.labels(reason="pool-respawn").inc()
                    pending.append(task)
            continue

        # Deaths: some worker vanished; any in-flight task may be the one
        # it took with it.  Give every task with budget a concurrent second
        # dispatch (capacity self-heals via the pool's maintenance thread).
        deaths_now = worker_deaths()
        if deaths_now > deaths_seen:
            deaths_seen = deaths_now
            for task in inflight:
                if task.attempts < retries + 1 and len(task.handles) < 2:
                    dispatch(task, reason="worker-death")
            continue

        time.sleep(_POLL_S)

    _SWEEP_INFLIGHT.set(0)
    _SWEEP_PENDING.set(0)
    return done


def _run_serial(todo: Sequence[str], period_s: float,
                baselines: Sequence[str], retries: int) -> List[SweepRecord]:
    """The in-process path, with the same retry/quarantine contract.

    Only ``raise`` faults fire here (this process must not kill or hang
    itself), so the retry loop is a plain try/except around the task body,
    which records its telemetry straight into this process.
    """
    rng = random.Random(0x5EED ^ len(todo))
    done: List[SweepRecord] = []
    for name in todo:
        task = _Task(scenario=get_scenario(name))
        while True:
            task.attempts += 1
            context = TaskContext.current(attempt=task.attempts - 1)
            try:
                done.append(_run_task((task.scenario, period_s,
                                       tuple(baselines), context)))
                break
            except FaultInjected as exc:
                reason = f"{type(exc).__name__}: {exc}"
                if task.attempts >= retries + 1:
                    _TASKS_QUARANTINED.inc()
                    _LOG.error("event=task_quarantined %s",
                               kv(scenario=task.name, attempts=task.attempts,
                                  reason=reason))
                    done.append(_quarantine_record(task, reason))
                    break
                _TASK_RETRIES.labels(reason="crash").inc()
                _LOG.warning("event=task_retry %s",
                             kv(scenario=task.name, attempt=task.attempts,
                                reason=reason))
                time.sleep(_backoff_s(task.attempts, rng))
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
