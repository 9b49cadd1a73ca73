"""Flight recorder: crash forensics bundles written at the moment of pain.

When something goes wrong in a long-lived serve process — an SLO starts
burning, a circuit breaker opens, the store degrades to its in-memory
fallback, SIGTERM arrives mid-drain — the evidence (recent spans, the
metrics-history window, the health snapshot, any armed profile) lives in
process memory and dies with it.  :class:`FlightRecorder` dumps that
state to disk *at the trigger*, so every chaos-suite failure and every
production incident leaves forensics behind.

Triggers (all funnel into :meth:`FlightRecorder.maybe_dump`):

* ``slo-breach`` — the history thread's snapshot hook sees a breach;
* ``breaker-open`` — ``serve/breaker.py`` transitions a breaker to OPEN;
* ``persist-fallback`` — a store write failed and the record was parked
  in memory (``serve/app.py``);
* ``sigterm`` — the drain path dumps synchronously before teardown;
* ``manual`` — ``POST /debug/dump``.

Bundles are single JSON files written through
:func:`repro.ioutils.write_atomic` (RC003 — a crash mid-dump never
leaves a torn bundle), pruned to ``max_bundles`` oldest-first, and
rate-limited per reason by ``cooldown_s`` so a flapping breaker cannot
fill the disk.  ``maybe_dump`` hands the write to a daemon thread — it
is safe to call from event-loop call stacks (RC004) — and the recorder
keeps that thread, so a serve process's ``close()`` can
:meth:`~FlightRecorder.join` the bundles it scheduled.
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import Callable, Dict, List, Optional

from ..ioutils import write_atomic
from .logs import get_logger, kv
from .metrics import REGISTRY
from .profile import PROFILER
from .runtime import RUNTIME
from .trace import TRACER

_LOG = get_logger("obs.flightrec")

__all__ = ["FlightRecorder", "FLIGHT"]

#: Bundle format version (bumped when the layout changes).  2: ``runtime``
#: is the process read at dump time (:meth:`RuntimeSampler.state`).
BUNDLE_SCHEMA = 2
#: Spans per bundle — the tail of the tracer ring, newest last.
MAX_SPANS = 512
DEFAULT_MAX_BUNDLES = 16
DEFAULT_COOLDOWN_S = 30.0
#: The metrics-history window captured into a bundle.
DEFAULT_WINDOW_S = 600.0

_UNSET = object()

_BUNDLES = REGISTRY.counter(
    "repro_flight_bundles_total",
    "Flight bundles written, by trigger reason.", labels=("reason",))
_DUMP_ERRORS = REGISTRY.counter(
    "repro_flight_dump_errors_total",
    "Flight bundle writes that failed (ENOSPC, bad dir).")


class FlightRecorder:
    """Writes forensics bundles on demand (see the module docstring).

    Disabled (``flight_dir`` unset) every call is a cheap no-op — the
    disabled-path cost is gated by the runtime-overhead benchmark.
    """

    def __init__(self, flight_dir: Optional[str] = None,
                 max_bundles: int = DEFAULT_MAX_BUNDLES,
                 cooldown_s: float = DEFAULT_COOLDOWN_S,
                 window_s: float = DEFAULT_WINDOW_S) -> None:
        self._lock = threading.Lock()
        self.flight_dir = flight_dir
        self.max_bundles = int(max_bundles)
        self.cooldown_s = float(cooldown_s)
        self.window_s = float(window_s)
        self.history = None
        self.health_fn: Optional[Callable[[], Dict[str, object]]] = None
        self._seq = 0
        self._last_dump: Dict[str, float] = {}
        #: Dump threads ``maybe_dump`` started (pruned as they finish).
        self._threads: List[threading.Thread] = []

    def configure(self, flight_dir=_UNSET, max_bundles=_UNSET,
                  cooldown_s=_UNSET, window_s=_UNSET, history=_UNSET,
                  health_fn=_UNSET) -> None:
        """Partial reconfiguration; omitted arguments keep their value."""
        with self._lock:
            if flight_dir is not _UNSET:
                self.flight_dir = flight_dir
            if max_bundles is not _UNSET:
                self.max_bundles = int(max_bundles)
            if cooldown_s is not _UNSET:
                self.cooldown_s = float(cooldown_s)
            if window_s is not _UNSET:
                self.window_s = float(window_s)
            if history is not _UNSET:
                self.history = history
            if health_fn is not _UNSET:
                self.health_fn = health_fn

    @property
    def enabled(self) -> bool:
        return bool(self.flight_dir)

    # -- bundle assembly -----------------------------------------------------

    def _bundle(self, reason: str) -> Dict[str, object]:
        healthz = None
        if self.health_fn is not None:
            try:
                healthz = self.health_fn()
            except Exception as exc:   # noqa: BLE001 — a sick health
                # probe is itself evidence; record the failure instead.
                healthz = {"error": type(exc).__name__}
        metrics_history = None
        if self.history is not None:
            try:
                self.history.snap()    # the freshest possible last point
                metrics_history = self.history.window(self.window_s)
            except Exception as exc:   # noqa: BLE001 — same rationale
                metrics_history = {"error": type(exc).__name__}
        profile_stacks = PROFILER.stacks()
        return {
            "schema": BUNDLE_SCHEMA,
            "reason": reason,
            "created_at": time.time(),
            "pid": os.getpid(),
            "healthz": healthz,
            "spans": TRACER.spans()[-MAX_SPANS:],
            "metrics_history": metrics_history,
            "profile": profile_stacks or None,
            "profile_armed": PROFILER.armed,
            "runtime": RUNTIME.state(),
        }

    def _prune(self, directory: str) -> None:
        try:
            bundles = sorted(
                name for name in os.listdir(directory)
                if name.startswith("flight-") and name.endswith(".json"))
        except OSError:
            return
        for name in bundles[:-self.max_bundles or None]:
            try:
                os.remove(os.path.join(directory, name))
            except OSError as exc:
                _LOG.debug("event=flight_prune_failed %s",
                           kv(bundle=name, error=type(exc).__name__))

    # -- dumping -------------------------------------------------------------

    def dump(self, reason: str = "manual") -> Optional[str]:
        """Write one bundle now; returns its path, or ``None`` on failure
        (counted in ``repro_flight_dump_errors_total``) or when disabled.
        """
        directory = self.flight_dir
        if not directory:
            return None
        with self._lock:
            self._seq += 1
            seq = self._seq
        path = os.path.join(
            directory, f"flight-{reason}-{seq:04d}-"
            f"{int(time.time() * 1000)}.json")
        bundle = self._bundle(reason)
        try:
            os.makedirs(directory, exist_ok=True)
            write_atomic(path, json.dumps(bundle) + "\n")
        except (OSError, TypeError, ValueError) as exc:
            _DUMP_ERRORS.inc()
            _LOG.warning("event=flight_dump_failed %s",
                         kv(reason=reason, error=type(exc).__name__))
            return None
        _BUNDLES.labels(reason=reason).inc()
        _LOG.warning("event=flight_bundle_written %s",
                     kv(reason=reason, path=path,
                        spans=len(bundle["spans"])))
        self._prune(directory)
        return path

    def maybe_dump(self, reason: str) -> bool:
        """Trigger an async dump unless disabled or inside the per-reason
        cooldown; returns whether a dump was scheduled.  Never blocks —
        safe from event-loop call stacks and breaker transitions."""
        if not self.flight_dir:
            return False
        now = time.monotonic()
        with self._lock:
            last = self._last_dump.get(reason)
            if last is not None and now - last < self.cooldown_s:
                return False
            self._last_dump[reason] = now
            # Started under the lock, so ``join`` never meets an unstarted
            # thread (the dump itself takes the lock only after start()).
            thread = threading.Thread(target=self.dump, args=(reason,),
                                      name=f"repro-flight-{reason}",
                                      daemon=True)
            thread.start()
            self._threads = [t for t in self._threads if t.is_alive()]
            self._threads.append(thread)
        return True

    def join(self, timeout_s: float) -> bool:
        """Wait up to ``timeout_s`` in all for the dumps ``maybe_dump``
        scheduled; returns whether every one has finished."""
        deadline = time.monotonic() + timeout_s
        with self._lock:
            threads = list(self._threads)
        for thread in threads:
            thread.join(max(0.0, deadline - time.monotonic()))
        return not any(thread.is_alive() for thread in threads)

    def reset_cooldowns(self) -> None:
        """Forget per-reason cooldowns — test hook."""
        with self._lock:
            self._last_dump.clear()


#: The process-wide recorder; disabled until serve (``--flight-dir``)
#: configures a directory.
FLIGHT = FlightRecorder()
