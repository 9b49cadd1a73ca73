"""Process runtime telemetry: RSS, CPU, fds, GC pauses, event-loop lag.

The spans/metrics/profiles of PRs 6-7 watch *requests*; nothing watched
the *process*.  :class:`RuntimeSampler` closes that gap without a thread
of its own: every reading is a callback gauge the registry evaluates on
demand, so a ``/metrics`` scrape or a metrics-history snapshot (serve's
one periodic telemetry thread, :mod:`repro.obs.history`) reads the
process at that instant.

* **RSS / CPU / open fds** — read from ``/proc/self`` where available,
  falling back to :func:`resource.getrusage` elsewhere.  Exported under
  the standard Prometheus process-metric names
  (``process_resident_memory_bytes``, ``process_cpu_seconds_total``,
  ``process_open_fds``) so off-the-shelf dashboards work unchanged.  Peak
  RSS is the kernel's own high-water mark (``ru_maxrss``), which keeps a
  spike that falls between two samples.
* **GC collections + pause wall time per generation** — a
  :data:`gc.callbacks` hook times every collection, surfacing the pauses
  that show up as mystery latency spikes in request histograms.
* **event-loop lag** — :meth:`RuntimeSampler.arm_loop_monitor` schedules
  a repeating callback and measures how late the loop actually ran it;
  armed only under serve, where a starved loop means every request is
  queueing behind something.

Pool workers run the same readings in miniature: :func:`task_runtime`
reads one task's CPU / GC deltas and the worker's peak RSS at task end,
the payload rides home in the :class:`~repro.sweep.runner.TaskResult`,
and :meth:`RuntimeSampler.ingest` folds it into ``repro_worker_*`` series
on the parent.
"""

from __future__ import annotations

import gc
import os
import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional

from .logs import get_logger, kv
from .metrics import REGISTRY, MetricsRegistry

_LOG = get_logger("obs.runtime")

__all__ = ["RuntimeSampler", "RUNTIME", "task_runtime", "rss_bytes",
           "peak_rss_bytes", "cpu_seconds", "open_fds"]

_GC_GENERATIONS = (0, 1, 2)


# ---------------------------------------------------------------------------
# raw process readings (Linux /proc first, resource fallback)


def rss_bytes() -> float:
    """Current resident set size in bytes (best effort, 0.0 if unknown)."""
    try:
        with open("/proc/self/status", "r", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmRSS:"):
                    return float(line.split()[1]) * 1024.0
    except (OSError, ValueError, IndexError) as exc:
        _LOG.debug("event=proc_status_unreadable %s",
                   kv(error=type(exc).__name__))
    # The peak is a coarse stand-in where /proc is unavailable.
    return peak_rss_bytes()


def peak_rss_bytes() -> float:
    """Peak RSS in bytes (``ru_maxrss``, 0.0 if unknown); a forked child's
    peak starts at its own RSS, not at its parent's peak."""
    try:
        import resource
        return float(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss) \
            * 1024.0
    except Exception:   # noqa: BLE001 — no resource module
        return 0.0


def cpu_seconds() -> float:
    """Total user+system CPU seconds consumed by this process."""
    try:
        with open("/proc/self/stat", "r", encoding="ascii") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        # fields[11]/[12] are utime/stime (fields 14/15 of the full line,
        # minus the 2 consumed before the comm close-paren).
        ticks = float(fields[11]) + float(fields[12])
        return ticks / float(os.sysconf("SC_CLK_TCK"))
    except (OSError, ValueError, IndexError) as exc:
        _LOG.debug("event=proc_stat_unreadable %s",
                   kv(error=type(exc).__name__))
    try:
        import resource
        usage = resource.getrusage(resource.RUSAGE_SELF)
        return float(usage.ru_utime + usage.ru_stime)
    except Exception:   # noqa: BLE001 — no resource module either
        return 0.0


def open_fds() -> float:
    """Open file descriptors for this process (0.0 where unsupported)."""
    try:
        return float(len(os.listdir("/proc/self/fd")))
    except OSError:
        return 0.0


# ---------------------------------------------------------------------------
# GC watch


class _GCWatch:
    """Counts collections and accumulates pause wall time per generation.

    Installed as a :data:`gc.callbacks` hook; the interpreter calls it
    synchronously around every collection, so the "start" timestamp and
    the "stop" accumulation pair up without locking (callbacks run under
    the GIL, never concurrently with themselves).
    """

    def __init__(self) -> None:
        self.collections: List[int] = [0, 0, 0]
        self.pause_s: List[float] = [0.0, 0.0, 0.0]
        self._started = 0.0
        self._installed = False

    def _callback(self, phase: str, info: Dict[str, int]) -> None:
        if phase == "start":
            self._started = time.perf_counter()
        elif phase == "stop":
            generation = info.get("generation", 0)
            if 0 <= generation <= 2:
                self.collections[generation] += 1
                self.pause_s[generation] += \
                    time.perf_counter() - self._started

    def install(self) -> None:
        if not self._installed:
            gc.callbacks.append(self._callback)
            self._installed = True

    def remove(self) -> None:
        if self._installed:
            try:
                gc.callbacks.remove(self._callback)
            except ValueError:
                _LOG.debug("event=gc_callback_already_removed")
            self._installed = False


# ---------------------------------------------------------------------------
# the process hooks


class RuntimeSampler:
    """The process gauges, the GC watch and the loop monitor (see module
    doc).  Holds no thread: serve installs the GC watch and arms the loop
    monitor at start, and removes both at close."""

    def __init__(self, registry: MetricsRegistry = REGISTRY) -> None:
        self._registry = registry
        self._loop_handle = None
        self._loop_generation = 0
        self.gc_watch = _GCWatch()
        self.loop_lag_s = 0.0
        self._register_metrics()

    # -- metric surface ------------------------------------------------------

    def _register_metrics(self) -> None:
        reg = self._registry
        reg.gauge("process_resident_memory_bytes",
                  "Resident set size of this process in bytes.",
                  fn=rss_bytes)
        reg.counter("process_cpu_seconds_total",
                    "Total user+system CPU time consumed, in seconds.",
                    fn=cpu_seconds)
        reg.gauge("process_open_fds",
                  "Open file descriptors held by this process.",
                  fn=open_fds)
        reg.gauge("repro_runtime_threads",
                  "Live Python threads in this process.",
                  fn=lambda: float(threading.active_count()))
        reg.gauge("repro_runtime_peak_rss_bytes",
                  "Peak RSS of this process (ru_maxrss).",
                  fn=peak_rss_bytes)
        reg.gauge("repro_loop_lag_seconds",
                  "Scheduled-callback drift of the asyncio event loop "
                  "(0 when no loop monitor is armed).",
                  fn=lambda: self.loop_lag_s)
        collections = reg.counter(
            "repro_gc_collections_total",
            "Garbage collections observed, per generation.",
            labels=("generation",))
        pauses = reg.counter(
            "repro_gc_pause_seconds_total",
            "Wall time spent inside GC collections, per generation.",
            labels=("generation",))
        watch = self.gc_watch
        for generation in _GC_GENERATIONS:
            collections.labels(generation=str(generation)).set_callback(
                lambda g=generation: float(watch.collections[g]))
            pauses.labels(generation=str(generation)).set_callback(
                lambda g=generation: watch.pause_s[g])

    # -- event-loop lag ------------------------------------------------------

    def arm_loop_monitor(self, loop, interval_s: float = 0.25) -> None:
        """Measure how late ``loop`` runs a callback scheduled every
        ``interval_s`` — the drift *is* the event-loop lag.  Must be
        called from the loop's thread (serve's ``app.start()``)."""
        self._loop_generation += 1
        generation = self._loop_generation

        def tick(expected: float) -> None:
            if generation != self._loop_generation:
                return
            now = loop.time()
            self.loop_lag_s = max(0.0, now - expected)
            self._loop_handle = loop.call_later(
                interval_s, tick, now + interval_s)

        self._loop_handle = loop.call_later(
            interval_s, tick, loop.time() + interval_s)

    def disarm_loop_monitor(self) -> None:
        self._loop_generation += 1
        handle = self._loop_handle
        self._loop_handle = None
        if handle is not None:
            handle.cancel()            # a no-op once the loop has closed
        self.loop_lag_s = 0.0

    # -- worker ingest -------------------------------------------------------

    def ingest(self, payload: Optional[Dict[str, object]]) -> bool:
        """Fold one worker :func:`task_runtime` payload into the parent's
        ``repro_worker_*`` series; returns whether anything was added."""
        if not payload or not isinstance(payload, dict):
            return False
        reg = self._registry
        peak = payload.get("peak_rss_bytes")
        if isinstance(peak, (int, float)) and peak > 0:
            gauge = reg.gauge("repro_worker_peak_rss_bytes",
                              "Highest task peak RSS shipped home by any "
                              "pool worker.")
            current = reg.value("repro_worker_peak_rss_bytes") or 0.0
            if peak > current:
                gauge.set(float(peak))
        cpu = payload.get("cpu_s")
        if isinstance(cpu, (int, float)) and cpu >= 0:
            reg.counter("repro_worker_cpu_seconds_total",
                        "CPU seconds burned inside pool worker tasks."
                        ).inc(float(cpu))
        collections = payload.get("gc_collections")
        if isinstance(collections, dict):
            metric = reg.counter(
                "repro_worker_gc_collections_total",
                "GC collections inside pool worker tasks, per generation.",
                labels=("generation",))
            for generation, count in collections.items():
                if isinstance(count, int) and count > 0:
                    metric.labels(generation=str(generation)).inc(count)
        return True

    def state(self) -> Dict[str, object]:
        """The process read now, JSON-safe (flight-bundle material)."""
        watch = self.gc_watch
        return {
            "rss_bytes": rss_bytes(),
            "peak_rss_bytes": peak_rss_bytes(),
            "cpu_s": cpu_seconds(),
            "open_fds": open_fds(),
            "threads": threading.active_count(),
            "gc_watch_installed": watch._installed,
            "gc_collections": list(watch.collections),
            "gc_pause_s": list(watch.pause_s),
            "loop_lag_s": self.loop_lag_s,
        }


# ---------------------------------------------------------------------------
# worker-side task capture


@contextmanager
def task_runtime() -> Iterator[Dict[str, object]]:
    """Wrap one pool task; the yielded payload is filled in at exit with
    its CPU / GC deltas and the worker's peak RSS, ready to ship home
    (the runtime twin of ``PROFILER.maybe`` / ``TRACER.capture``)."""
    cpu_start = cpu_seconds()
    gc_start = [stats.get("collections", 0) for stats in gc.get_stats()]
    payload: Dict[str, object] = {"pid": os.getpid()}
    try:
        yield payload
    finally:
        payload["peak_rss_bytes"] = peak_rss_bytes()
        payload["cpu_s"] = max(0.0, cpu_seconds() - cpu_start)
        payload["gc_collections"] = {
            str(generation): stats.get("collections", 0) - before
            for generation, (before, stats)
            in enumerate(zip(gc_start, gc.get_stats()))
            if stats.get("collections", 0) > before}


#: The process-wide hooks.  The gauges are callback-backed and always
#: live; serve adds the GC watch and the loop monitor.
RUNTIME = RuntimeSampler()
