"""Statistical sampling profiler (stdlib-only, flamegraph-compatible).

One process-wide :data:`PROFILER` answers the question spans cannot:
*which frames* burn the time inside a slow span.
``signal.setitimer(ITIMER_PROF)`` delivers ``SIGPROF`` every ``1/hz``
seconds of *CPU time*, and the handler walks the interrupted frame's
``f_back`` chain: no thread, no polling.  Python installs signal handlers
on the main thread only, so arming anywhere else — or where ``SIGPROF``
or ``setitimer`` is missing — raises :class:`ProfilerError`.  Every arming
site runs on a main thread: the CLI's ``--flame``, serve's event loop and
a pool worker's task.

Arming is **re-entrant**: nested :meth:`Profiler.profiled` scopes bump a
depth counter, so an inner scope exiting never disarms an outer one.  The
signal handler appends raw frame stacks to a :class:`collections.deque`
(atomic under the GIL, safe to touch from a signal handler even while
another thread holds the profiler lock) and samples are folded into
aggregate counters on the next read.

Stacks aggregate as ``root;caller;callee -> count`` — the collapsed-stack
format ``flamegraph.pl`` and speedscope consume directly.  Worker-side
profiles ship home over the same result-channel machinery as spans: the
worker runs its task under :meth:`Profiler.profiled`, serialises the
capture with :meth:`_ProfileCapture.as_payload`, and the submitting
process folds it back in with :meth:`Profiler.ingest`.
"""

from __future__ import annotations

import signal
import threading
from collections import Counter, deque
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple

from ..ioutils import fresh_lock_after_fork
from .logs import get_logger, kv

_LOG = get_logger("obs.profile")

__all__ = ["Profiler", "PROFILER", "ProfilerError", "DEFAULT_HZ", "collapse"]

DEFAULT_HZ = 100
#: Stack walks stop here: deeper frames almost always repeat recursion.
MAX_STACK_DEPTH = 64
#: Sampling rates are clamped into this band — below 1 Hz a profile never
#: converges, above 1 kHz the handler itself becomes the hot frame.
MIN_HZ, MAX_HZ = 1, 1000

_Stack = Tuple[str, ...]


class ProfilerError(RuntimeError):
    """The profiler cannot arm here: off the main thread, or no
    ``SIGPROF``/``setitimer`` on this platform."""


def _frame_label(frame) -> str:
    """``module.qualname`` for one frame (``co_qualname``: 3.11+)."""
    code = frame.f_code
    name = getattr(code, "co_qualname", code.co_name)
    return f"{frame.f_globals.get('__name__', '?')}.{name}"


def _stack_of(frame) -> _Stack:
    """The frame's call chain, root first, capped at MAX_STACK_DEPTH."""
    labels: List[str] = []
    depth = 0
    while frame is not None and depth < MAX_STACK_DEPTH:
        labels.append(_frame_label(frame))
        frame = frame.f_back
        depth += 1
    labels.reverse()
    return tuple(labels)


def collapse(stacks: Dict[str, int]) -> str:
    """Render ``{joined-stack: count}`` as collapsed-stack text.

    One ``root;caller;callee count`` line per distinct stack, heaviest
    first — feed it straight to ``flamegraph.pl``.
    """
    ordered = sorted(stacks.items(), key=lambda item: (-item[1], item[0]))
    return "".join(f"{stack} {count}\n" for stack, count in ordered)


class _ProfileCapture:
    """Collects the samples recorded while one :meth:`profiled` scope ran."""

    __slots__ = ("stacks",)

    def __init__(self) -> None:
        self.stacks: "Counter[_Stack]" = Counter()

    @property
    def samples(self) -> int:
        return sum(self.stacks.values())

    def as_payload(self) -> Dict[str, object]:
        """The JSON/pickle-safe form a pool worker ships over its result
        channel (see :meth:`Profiler.ingest`)."""
        return {"stacks": {";".join(s): n for s, n in self.stacks.items()},
                "samples": self.samples}

    def collapsed(self) -> str:
        return collapse({";".join(s): n for s, n in self.stacks.items()})


class _NullProfile:
    """The do-nothing scope :meth:`Profiler.maybe` returns when disabled.

    Mirrors ``NULL_SPAN``: the disarmed path must cost one attribute read
    and an empty ``with`` — the profile-overhead benchmark gates this.
    """

    __slots__ = ()
    stacks: Dict[_Stack, int] = {}
    samples = 0

    def __enter__(self) -> "_NullProfile":
        return self

    def __exit__(self, *exc_info) -> None:
        return None

    def as_payload(self) -> None:
        return None

    def collapsed(self) -> str:
        return ""


_NULL_PROFILE = _NullProfile()


class Profiler:
    """The process-wide sampling profiler (see the module docstring)."""

    def __init__(self, hz: int = DEFAULT_HZ) -> None:
        self._lock = threading.Lock()
        # Signal handlers may run while another thread holds self._lock;
        # they only ever touch this deque (append is atomic under the GIL)
        # and samples are folded into the counters on the next read.
        self._pending: "deque[_Stack]" = deque()
        self._stacks: "Counter[_Stack]" = Counter()
        self._captures: List[_ProfileCapture] = []
        self._arm_depth = 0
        self._old_handler = None
        self.hz = self._clamp_hz(hz)
        self.sample_errors = 0
        self._ingested = 0

    @staticmethod
    def _clamp_hz(hz: Optional[int]) -> int:
        return max(MIN_HZ, min(MAX_HZ, int(hz or DEFAULT_HZ)))

    def configure(self, hz: Optional[int] = None) -> None:
        """Set the sampling rate used by the *next* arm (``None`` = keep)."""
        if hz is not None:
            with self._lock:
                self.hz = self._clamp_hz(hz)

    # -- sampling ------------------------------------------------------------

    def _on_sigprof(self, signum, frame) -> None:
        try:
            stack = _stack_of(frame)
            # The interrupted frame can be the profiler itself (a drain in
            # progress); charging those samples would profile the profiler.
            if stack and not stack[-1].startswith(__name__):
                self._pending.append(stack)
        except Exception:
            self.sample_errors += 1

    # -- arming --------------------------------------------------------------

    def arm(self, hz: Optional[int] = None) -> None:
        """Start sampling (re-entrant).

        The first arm installs the ``SIGPROF`` handler and starts the
        timer; later nested arms only bump the depth counter: their ``hz``
        is ignored and their disarm never stops the outer scope's
        sampling.  Raises :class:`ProfilerError` off the main thread or
        without ``SIGPROF``/``setitimer``, leaving the arm depth and the
        ``SIGPROF`` handler as they were.
        """
        with self._lock:
            if threading.current_thread() is not threading.main_thread() \
                    or not hasattr(signal, "setitimer") \
                    or not hasattr(signal, "SIGPROF"):
                raise ProfilerError("the sampling profiler arms only on the "
                                    "main thread, with SIGPROF and setitimer")
            if self._arm_depth > 0:
                self._arm_depth += 1
                return
            if hz is not None:
                self.hz = self._clamp_hz(hz)
            interval = 1.0 / self.hz
            self._old_handler = signal.signal(signal.SIGPROF,
                                              self._on_sigprof)
            signal.setitimer(signal.ITIMER_PROF, interval, interval)
            self._arm_depth = 1

    def disarm(self) -> None:
        """Undo one :meth:`arm`; sampling stops when the depth hits zero."""
        with self._lock:
            if self._arm_depth == 0:
                return
            self._arm_depth -= 1
            if self._arm_depth > 0:
                return
            try:
                signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
                if self._old_handler is not None:
                    signal.signal(signal.SIGPROF, self._old_handler)
            except (ValueError, OSError) as exc:
                # Disarm raced interpreter teardown or a non-main thread;
                # the itimer dies with the process either way.
                _LOG.debug("event=profiler_disarm_failed %s",
                           kv(error=type(exc).__name__))
            self._old_handler = None
            self._drain_locked()

    @property
    def armed(self) -> bool:
        return self._arm_depth > 0

    @contextmanager
    def profiled(self, hz: Optional[int] = None) -> Iterator[_ProfileCapture]:
        """Sample for the duration of the scope, collecting its stacks.

        Nesting is safe (see :meth:`arm`); each scope's capture sees only
        the samples recorded while it was active.
        """
        capture = _ProfileCapture()
        self.arm(hz=hz)
        with self._lock:
            self._drain_locked()          # earlier samples are not ours
            self._captures.append(capture)
        try:
            yield capture
        finally:
            with self._lock:
                self._drain_locked()
                self._captures.remove(capture)
            self.disarm()

    def maybe(self, enabled: bool, hz: Optional[int] = None):
        """:meth:`profiled` when ``enabled``, else the shared no-op scope.

        The per-task / per-request hook: callers wrap the work
        unconditionally and the disarmed path stays sub-microsecond.
        """
        if not enabled:
            return _NULL_PROFILE
        return self.profiled(hz=hz)

    # -- aggregation ---------------------------------------------------------

    def _drain_locked(self) -> None:
        while True:
            try:
                stack = self._pending.popleft()
            except IndexError:
                return
            self._stacks[stack] += 1
            for capture in self._captures:
                capture.stacks[stack] += 1

    def ingest(self, payload: Optional[Dict[str, object]]) -> int:
        """Fold a shipped worker profile (:meth:`_ProfileCapture.as_payload`)
        into this process' aggregate; returns the samples added."""
        if not payload or not isinstance(payload, dict):
            return 0
        stacks = payload.get("stacks")
        if not isinstance(stacks, dict):
            return 0
        added = 0
        with self._lock:
            for joined, count in stacks.items():
                if not isinstance(joined, str) or not isinstance(count, int) \
                        or count <= 0:
                    continue
                self._stacks[tuple(joined.split(";"))] += count
                added += count
            self._ingested += added
        return added

    def samples(self) -> int:
        with self._lock:
            self._drain_locked()
            return sum(self._stacks.values())

    def stacks(self) -> Dict[str, int]:
        """A ``{joined-stack: count}`` snapshot of everything aggregated."""
        with self._lock:
            self._drain_locked()
            return {";".join(s): n for s, n in self._stacks.items()}

    def collapsed_text(self) -> str:
        return collapse(self.stacks())

    def state_token(self) -> str:
        """Changes whenever the aggregate does — the ``/profile`` ETag seed."""
        with self._lock:
            self._drain_locked()
            return f"{sum(self._stacks.values())}-{self._ingested}"

    def reset(self) -> None:
        """Drop every aggregated sample (keeps an active arm running)."""
        with self._lock:
            self._pending.clear()
            self._stacks.clear()
            self._ingested = 0
            self.sample_errors = 0


#: The process-wide profiler, disarmed until a caller (CLI ``--flame``,
#: the serve layer's ``X-Repro-Profile`` header, a pool task's
#: ``TaskContext``) arms it.
PROFILER = Profiler()
fresh_lock_after_fork(PROFILER)
