"""Background pipeline execution for the serving layer.

A bounded queue of *jobs* — one registered scenario each — each run by a
:class:`~repro.sweep.runner.Dispatch` over the **shared** warm
multiprocessing pool of :mod:`repro.sweep.runner` (never a second pool), so
an HTTP-submitted run and a CLI sweep compete for the same workers instead
of oversubscribing the machine, and fail, retry and time out by the same
rules.

Results flow through exactly the sweep engine's persistence
(:func:`~repro.sweep.runner.store_record`): the per-scenario cache entry and
the JSONL result store.  A run requested over HTTP is therefore a **cache
hit** for a later ``repro sweep`` of the same scenario, and vice versa — a
job whose scenario is already cached completes instantly without touching
the pool.

Lifecycle per job: ``queued`` → ``running`` → one of ``ok`` / ``error`` /
``timeout`` / ``cancelled``.  Failure handling:

* an attempt lost to infrastructure — its worker died running it, or
  the worker raised an injected fault — costs the job one of its
  ``retries`` re-dispatches, with backoff; out of retries, the job ends
  ``error``; the dispatcher itself always survives;
* ``timeout_s`` is a per-attempt deadline with **real** timeout
  semantics: the shared pool is respawned (killing the hung worker — a
  pool task cannot be killed individually), so the slot is actually freed
  instead of leaking behind an "abandoned" task.  A timed-out attempt is
  retried like a lost one; a job whose last attempt timed out ends
  ``timeout`` and persists nothing;
* repeated failures of one scenario trip its **circuit breaker**
  (:mod:`repro.serve.breaker`): submissions are refused with 503 until a
  half-open probe succeeds, so a poisoned scenario cannot starve the
  queue;
* cancellation is immediate for queued jobs; a cancelled *running* job's
  result is abandoned while its dispatcher drains the worker before
  dispatching new work — abandonment never over-commits the pool;
* during **drain** (SIGTERM) the queue refuses new work and waits for
  in-flight jobs up to a deadline.
"""

from __future__ import annotations

import asyncio
import itertools
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..obs.logs import get_logger, kv
from ..obs.metrics import REGISTRY
from ..obs.trace import TRACER
from ..sweep.results import SweepRecord
from ..sweep.runner import (
    DEFAULT_BASELINES,
    DEFAULT_CACHE_DIR,
    Dispatch,
    load_cached_record,
    store_record,
)
from .breaker import BreakerBoard

__all__ = ["Job", "JobQueue", "QueueFull"]

#: How often a dispatcher steps its job's Dispatch.
_POLL_INTERVAL_S = 0.05

_LOG = get_logger("serve.jobs")

#: Queue-wait distribution — submission to dispatcher pick-up.  Observed for
#: every job; the matching per-trace ``serve.queue_wait`` span only exists
#: for sampled requests.
_QUEUE_WAIT_SECONDS = REGISTRY.histogram(
    "repro_job_queue_wait_seconds",
    "seconds a job waited in the queue before a dispatcher picked it up")
_PERSIST_ERRORS = REGISTRY.counter(
    "repro_job_persist_errors_total",
    "job results the cache/store refused to write (kept in memory instead)")

TERMINAL = ("ok", "error", "timeout", "cancelled")


class QueueFull(Exception):
    """The job queue is at capacity (or draining); retry later."""


@dataclass
class Job:
    """One submitted pipeline run."""

    id: str
    scenario: str
    period_s: float = 60.0
    baselines: Tuple[str, ...] = DEFAULT_BASELINES
    rerun: bool = False
    status: str = "queued"
    cached: bool = False
    error: Optional[str] = None
    record: Optional[SweepRecord] = None
    submitted_at: float = field(default_factory=time.time)
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    #: Monotonic twins of the wall-clock stamps above.  The wall clock is
    #: for display only; queue-wait and job durations are computed from
    #: these so an NTP step can't produce negative waits or bogus spans.
    submitted_mono: float = field(default_factory=time.monotonic)
    started_mono: Optional[float] = None
    finished_mono: Optional[float] = None
    #: Re-dispatches this job used (0 when the first attempt succeeded).
    retries_used: int = 0
    #: The submitting request's trace context (``None`` outside a sampled
    #: trace): the queue-wait/job spans parent under it and the pool worker
    #: adopts it.
    trace_ctx: Optional[Dict[str, str]] = None
    #: Non-zero (an ``X-Repro-Profile`` header) arms the pool worker's
    #: sampling profiler for this job; its collapsed stacks are folded into
    #: the process-wide profiler (``GET /profile``) on completion.
    profile_hz: int = 0
    #: How many profiler samples the worker shipped back (``None`` until a
    #: profiled job finishes).
    profile_samples: Optional[int] = None

    @property
    def trace_id(self) -> Optional[str]:
        return self.trace_ctx.get("trace_id") if self.trace_ctx else None

    @property
    def done(self) -> bool:
        return self.status in TERMINAL

    def as_payload(self) -> Dict[str, object]:
        """The job as a JSON-compatible API record."""
        payload: Dict[str, object] = {
            "id": self.id,
            "scenario": self.scenario,
            "status": self.status,
            "cached": self.cached,
            "period_s": self.period_s,
            "baselines": list(self.baselines),
            "rerun": self.rerun,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "error": self.error,
            "retries_used": self.retries_used,
            "trace_id": self.trace_id,
            "profile_hz": self.profile_hz,
            "profile_samples": self.profile_samples,
        }
        # Monotonic-derived duration: immune to wall-clock steps, unlike
        # finished_at - started_at which clients must treat as display.
        if self.finished_mono is not None:
            start_mono = (self.started_mono
                          if self.started_mono is not None
                          else self.submitted_mono)
            payload["duration_s"] = round(self.finished_mono - start_mono, 6)
        if self.record is not None:
            payload["record"] = {
                "scenario": self.record.scenario,
                "status": self.record.status,
                "scenario_hash": self.record.scenario_hash,
                "code_version": self.record.code_version,
                "elapsed_s": self.record.elapsed_s,
                "summary": self.record.summary,
            }
        return payload


class JobQueue:
    """Bounded asyncio job queue over the shared sweep worker pool."""

    def __init__(self, cache_dir: str = DEFAULT_CACHE_DIR,
                 out_path: Optional[str] = None,
                 pool_processes: int = 2,
                 timeout_s: float = 600.0,
                 maxsize: int = 32,
                 keep_finished: int = 256,
                 retries: int = 1,
                 breaker_threshold: int = 5,
                 breaker_cooldown_s: float = 30.0,
                 on_persist_error: Optional[
                     Callable[[SweepRecord], None]] = None) -> None:
        self.cache_dir = cache_dir
        self.out_path = out_path
        self.pool_processes = max(1, pool_processes)
        self.timeout_s = timeout_s
        self.maxsize = maxsize
        self.keep_finished = keep_finished
        self.retries = max(0, retries)
        #: Where a result goes when the disk refuses it (the app wires this
        #: to the store's in-memory fallback) — degradation, not data loss.
        self.on_persist_error = on_persist_error
        self.breakers = BreakerBoard(threshold=breaker_threshold,
                                     cooldown_s=breaker_cooldown_s)
        self._jobs: Dict[str, Job] = {}
        self._order: List[str] = []
        self._queue: "asyncio.Queue[str]" = asyncio.Queue()
        self._ids = itertools.count(1)
        self._dispatchers: List[asyncio.Task] = []
        self._draining = False
        self.completed = 0
        #: Dispatchers running a job on the pool right now, retry backoff
        #: included — the pool-utilisation gauge's source
        #: (``repro_pool_busy_workers``).
        self._busy = 0

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        """Spawn the dispatcher tasks (as many as the pool has workers —
        the pool itself is the real concurrency limit)."""
        if self._dispatchers:
            return
        for _ in range(self.pool_processes):
            self._dispatchers.append(asyncio.ensure_future(self._dispatch()))

    async def close(self) -> None:
        """Cancel dispatchers; queued jobs are marked cancelled."""
        for task in self._dispatchers:
            task.cancel()
        for task in self._dispatchers:
            try:
                await task
            except asyncio.CancelledError:
                # The expected reply to the cancel() above; note it so a
                # hung shutdown is diagnosable from the log alone.
                _LOG.debug("event=dispatcher_cancelled %s",
                           kv(task=task.get_name()))
        self._dispatchers = []
        for job in self._jobs.values():
            if not job.done:
                self._finish(job, "cancelled")

    @property
    def draining(self) -> bool:
        return self._draining

    async def drain(self, timeout_s: float = 10.0) -> int:
        """Stop accepting work, wait for in-flight jobs up to ``timeout_s``.

        Jobs still unfinished at the deadline are marked cancelled.
        Returns how many were cut off.  Idempotent; submissions during a
        drain are refused with :class:`QueueFull` (503 to clients).
        """
        self._draining = True
        deadline = time.monotonic() + max(0.0, timeout_s)
        while self.pending() and time.monotonic() < deadline:
            await asyncio.sleep(_POLL_INTERVAL_S)
        leftover = [j for j in self._jobs.values() if not j.done]
        for job in leftover:
            self._finish(job, "cancelled")
        _LOG.warning("event=queue_drained %s",
                     kv(cut_off=len(leftover), completed=self.completed))
        return len(leftover)

    # -- submission / inspection --------------------------------------------

    def pending(self) -> int:
        return sum(1 for j in self._jobs.values() if not j.done)

    def busy_workers(self) -> int:
        """Dispatchers currently running a job on the pool."""
        return self._busy

    def queue_depth(self) -> int:
        """Jobs accepted but not yet picked up by a dispatcher."""
        return self._queue.qsize()

    def submit(self, scenario: str, period_s: float = 60.0,
               baselines: Tuple[str, ...] = DEFAULT_BASELINES,
               rerun: bool = False,
               trace_ctx: Optional[Dict[str, str]] = None,
               profile_hz: int = 0) -> Job:
        """Enqueue one run; raises :class:`QueueFull` at capacity or while
        draining, :class:`~repro.serve.breaker.CircuitOpen` when the
        scenario's breaker refuses it."""
        if self._draining:
            raise QueueFull("server is draining; not accepting new jobs")
        if self.pending() >= self.maxsize:
            raise QueueFull(f"job queue is full ({self.maxsize} pending)")
        self.breakers.allow(scenario)
        job = Job(id=f"job-{next(self._ids)}", scenario=scenario,
                  period_s=float(period_s), baselines=tuple(baselines),
                  rerun=bool(rerun), trace_ctx=trace_ctx,
                  profile_hz=max(0, int(profile_hz)))
        self._jobs[job.id] = job
        self._order.append(job.id)
        self._queue.put_nowait(job.id)
        self._trim()
        return job

    def get(self, job_id: str) -> Optional[Job]:
        return self._jobs.get(job_id)

    def jobs(self) -> List[Job]:
        """Every tracked job, submission order."""
        return [self._jobs[job_id] for job_id in self._order]

    def cancel(self, job_id: str) -> Job:
        """Cancel a job: immediate while queued, best-effort while running
        (the result is abandoned), a no-op once terminal."""
        job = self._jobs.get(job_id)
        if job is None:
            raise KeyError(job_id)
        if not job.done:
            self._finish(job, "cancelled")
        return job

    def _trim(self) -> None:
        """Bound the finished-job history."""
        while len(self._order) > self.keep_finished:
            for index, job_id in enumerate(self._order):
                if self._jobs[job_id].done:
                    del self._jobs[job_id]
                    del self._order[index]
                    break
            else:
                return

    def _finish(self, job: Job, status: str,
                record: Optional[SweepRecord] = None,
                error: Optional[str] = None) -> None:
        job.status = status
        job.record = record
        job.error = error if error is not None else \
            (record.error if record is not None else None)
        job.finished_at = time.time()     # wall clock: display only
        job.finished_mono = time.monotonic()
        self.completed += 1
        # Feed the scenario's circuit breaker: successes close it, errors
        # and timeouts push it open, a cancellation releases any half-open
        # probe without a verdict.
        if status == "ok":
            self.breakers.record(job.scenario, ok=True)
        elif status in ("error", "timeout"):
            self.breakers.record(job.scenario, ok=False)
        else:
            self.breakers.abandon(job.scenario)
        # The job interval is enclosed by no single frame (it spans poll
        # iterations), so it is recorded retroactively — a no-op without a
        # trace context.
        start = job.started_at if job.started_at is not None \
            else job.submitted_at
        start_mono = job.started_mono if job.started_mono is not None \
            else job.submitted_mono
        TRACER.record_external(
            "serve.job", job.trace_ctx, start_ts=start,
            duration_s=job.finished_mono - start_mono, job=job.id,
            scenario=job.scenario, status=status, cached=job.cached)

    def _persist(self, job: Job, record: SweepRecord) -> None:
        """Store a finished record; a refusing disk degrades, never fails.

        The record stays on the job (and goes to ``on_persist_error`` — in
        practice the result store's in-memory fallback), so the client
        still reads its result and a later flush can land it on disk.
        """
        try:
            store_record(self.cache_dir, record, period_s=job.period_s,
                         baselines=job.baselines, out_path=self.out_path)
        except OSError as exc:
            _PERSIST_ERRORS.inc()
            _LOG.warning("event=persist_error %s",
                         kv(job=job.id, scenario=job.scenario,
                            error=str(exc)))
            if self.on_persist_error is not None:
                try:
                    self.on_persist_error(record)
                except Exception as fallback_exc:  # noqa: BLE001
                    _LOG.error("event=persist_fallback_error %s",
                               kv(job=job.id, error=str(fallback_exc)))

    # -- execution ----------------------------------------------------------

    async def _dispatch(self) -> None:
        while True:
            job_id = await self._queue.get()
            job = self._jobs.get(job_id)
            if job is None or job.done:     # cancelled (or trimmed) in queue
                continue
            try:
                await self._run(job)
            except asyncio.CancelledError:
                if not job.done:
                    self._finish(job, "cancelled")
                raise
            except Exception as exc:        # noqa: BLE001 — keep dispatching
                _LOG.error("event=dispatch_error %s",
                           kv(job=job.id, scenario=job.scenario,
                              error=f"{type(exc).__name__}: {exc}"))
                self._finish(job, "error", error=f"{type(exc).__name__}: "
                                                 f"{exc}")

    async def _run(self, job: Job) -> None:
        job.status = "running"
        job.started_at = time.time()      # wall clock: display only
        job.started_mono = time.monotonic()
        wait_s = job.started_mono - job.submitted_mono
        _QUEUE_WAIT_SECONDS.observe(wait_s)
        TRACER.record_external("serve.queue_wait", job.trace_ctx,
                               start_ts=job.submitted_at, duration_s=wait_s,
                               job=job.id)
        # A profiled job must actually run the pipeline: a cache hit would
        # return a record without ever sampling a frame.
        if not job.rerun and not job.profile_hz:
            cached = load_cached_record(self.cache_dir, job.scenario,
                                        period_s=job.period_s,
                                        baselines=job.baselines)
            if cached is not None:
                cached.cached = True
                job.cached = True
                self._persist(job, cached)
                self._finish(job, "ok", record=cached)
                return
        # One Dispatch per job owns the attempt deadline, retries, pool
        # respawn and worker-death detection; stepping it never blocks.
        dispatch = Dispatch(self.pool_processes, period_s=job.period_s,
                            baselines=job.baselines, retries=self.retries,
                            deadline_s=self.timeout_s)
        task = dispatch.add(job.scenario, trace_ctx=job.trace_ctx,
                            profile_hz=job.profile_hz)
        self._busy += 1
        try:
            while not dispatch.step():
                # A cancelled job's dispatcher keeps draining its worker
                # before taking new work (returning early would over-commit
                # the pool), but starts no retry.
                if job.done and task.handle is None:
                    return
                await asyncio.sleep(_POLL_INTERVAL_S)
        finally:
            self._busy -= 1
        job.retries_used = task.attempts - 1
        if job.done:                        # cancelled mid-flight: discard
            return
        if task.failure == "deadline":
            self._finish(job, "timeout",
                         error=f"attempt {task.attempts} exceeded "
                               f"{self.timeout_s:g}s; its worker was killed "
                               "and the pool respawned")
        elif task.failure is not None:
            self._finish(job, "error",
                         error=f"worker lost after {task.attempts} "
                               f"attempts ({task.detail})")
        else:
            job.profile_samples = task.profile_samples
            self._persist(job, task.record)
            self._finish(job, "ok" if task.record.ok else "error",
                         record=task.record)
