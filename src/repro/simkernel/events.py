"""Event primitives for the discrete-event simulation kernel.

The kernel is a small, dependency-free discrete-event engine in the spirit of
SimPy: *processes* are Python generators that ``yield`` events, and the
engine resumes them when those events fire.  Only the features needed by the
network and NWS simulators are implemented, which keeps the hot path (event
scheduling and dispatch) simple and fast.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, List, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from .engine import Engine

__all__ = [
    "Event",
    "Timeout",
    "AllOf",
    "Interrupt",
    "StopSimulation",
]

_event_ids = itertools.count()


class Interrupt(Exception):
    """Raised inside a process that has been interrupted by another process."""

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class StopSimulation(Exception):
    """Raised (by a process or callback) to terminate :meth:`Engine.run` early.

    :meth:`Engine.run` returns cleanly with the exception's value (its first
    argument, if any).
    """

    @property
    def value(self) -> Any:
        return self.args[0] if self.args else None


class Event:
    """A value-carrying one-shot occurrence on the simulation timeline.

    An event starts *pending*, may be :meth:`succeed`-ed or :meth:`fail`-ed
    exactly once, and notifies its callbacks when it fires.  Processes wait on
    events by yielding them.  Events are the densest allocation of the hot
    loop, so the whole hierarchy uses ``__slots__``.
    """

    __slots__ = ("engine", "eid", "callbacks", "_value", "_ok")

    def __init__(self, engine: "Engine"):
        self.engine = engine
        self.eid = next(_event_ids)
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = None
        self._ok: Optional[bool] = None  # None = pending, True/False once fired

    # -- state ------------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """Whether the event has been scheduled to fire (or already fired)."""
        return self._ok is not None

    @property
    def processed(self) -> bool:
        """Whether the callbacks have already been run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """Whether the event fired successfully (only valid once triggered)."""
        if self._ok is None:
            raise RuntimeError("event not yet triggered")
        return self._ok

    @property
    def value(self) -> Any:
        """The value the event fired with (or the exception if it failed)."""
        if self._ok is None:
            raise RuntimeError("event not yet triggered")
        return self._value

    # -- firing -----------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Fire the event successfully with ``value`` at the current time."""
        if self._ok is not None:
            raise RuntimeError(f"event {self.eid} already triggered")
        self._ok = True
        self._value = value
        self.engine._schedule(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Fire the event as failed; waiters will see ``exception`` raised."""
        if self._ok is not None:
            raise RuntimeError(f"event {self.eid} already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._ok = False
        self._value = exception
        self.engine._schedule(self)
        return self

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Register ``callback`` to run when the event is processed."""
        if self.callbacks is None:
            # Already processed: run immediately so late waiters still wake up.
            callback(self)
        else:
            self.callbacks.append(callback)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "pending" if self._ok is None else ("ok" if self._ok else "failed")
        return f"<{type(self).__name__} #{self.eid} {state}>"


class Timeout(Event):
    """An event that fires automatically after a fixed simulated delay."""

    __slots__ = ("delay",)

    def __init__(self, engine: "Engine", delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        super().__init__(engine)
        self.delay = delay
        self._ok = True
        self._value = value
        engine._schedule(self, delay=delay)


class AllOf(Event):
    """Fires once all the given events have fired."""

    __slots__ = ("events", "_done")

    def __init__(self, engine: "Engine", events: List[Event]):
        super().__init__(engine)
        self.events = list(events)
        self._done = 0
        if not self.events:
            self.succeed({})
            return
        for ev in self.events:
            ev.add_callback(self._check)

    def _check(self, event: Event) -> None:
        if self._ok is not None:
            return
        if not event._ok:
            self.fail(event._value)
            return
        self._done += 1
        if self._done == len(self.events):
            self.succeed({ev: ev._value for ev in self.events})
