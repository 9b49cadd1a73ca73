"""The discrete-event simulation engine.

The :class:`Engine` owns the simulation clock and the pending-event heap.
Everything else in the simulator (network flows, NWS daemons, ENV probe
drivers) is expressed as processes and events scheduled on one engine
instance, which makes whole-system runs deterministic and reproducible.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator, List, Optional, Tuple

from ..perf import EVENTS
from .events import AllOf, Event, StopSimulation, Timeout
from .process import Process

__all__ = ["Engine", "StopSimulation"]


class Engine:
    """A discrete-event simulation engine with a floating-point clock.

    An exception escaping a process body propagates out of :meth:`run`.

    Parameters
    ----------
    start_time:
        Initial value of the simulation clock (seconds).
    """

    #: Scheduling priorities: urgent events (interrupts) run before normal ones
    #: scheduled at the same timestamp.
    PRIORITY_URGENT = 0
    PRIORITY_NORMAL = 1

    __slots__ = ("_now", "_queue", "_counter", "event_count")

    def __init__(self, start_time: float = 0.0):
        self._now = float(start_time)
        self._queue: List[Tuple[float, int, int, Event]] = []
        # A plain int sequence number: cheaper than itertools.count() in the
        # scheduling hot path and keeps heap comparisons on ints.
        self._counter = 0
        self.event_count = 0

    # -- clock -------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    # -- factories ---------------------------------------------------------
    def event(self) -> Event:
        """Create a new pending :class:`Event` bound to this engine."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator, name: str = "") -> Process:
        """Start a new :class:`Process` running ``generator``."""
        return Process(self, generator, name=name)

    def all_of(self, events: List[Event]) -> AllOf:
        """Composite event firing when all of ``events`` have fired."""
        return AllOf(self, events)

    def call_at(self, when: float, callback: Callable[[], None]) -> Event:
        """Run ``callback()`` at absolute simulated time ``when``."""
        if when < self._now:
            raise ValueError(f"cannot schedule in the past ({when} < {self._now})")
        ev = self.timeout(when - self._now)
        ev.add_callback(lambda _ev: callback())
        return ev

    # -- scheduling --------------------------------------------------------
    def _schedule(self, event: Event, delay: float = 0.0, priority: int = 1) -> None:
        self._counter += 1
        heapq.heappush(
            self._queue, (self._now + delay, priority, self._counter, event)
        )

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if the queue is empty."""
        return self._queue[0][0] if self._queue else float("inf")

    def step(self) -> None:
        """Process the single next event in the queue."""
        when, _prio, _cnt, event = heapq.heappop(self._queue)
        if when < self._now - 1e-12:
            raise RuntimeError("event scheduled in the past")
        self._now = max(self._now, when)
        self.event_count += 1
        EVENTS.value += 1.0
        callbacks, event.callbacks = event.callbacks, None
        for callback in callbacks or ():
            callback(event)

    def run(self, until: Optional[float | Event] = None) -> Any:
        """Run the simulation.

        Parameters
        ----------
        until:
            ``None`` runs until the event queue drains.  A number runs until
            the clock reaches exactly that time (later events stay queued and
            a subsequent ``run`` continues from them).  An :class:`Event`
            runs until that event fires and returns its value.

        A :class:`StopSimulation` escaping any process or callback terminates
        the run immediately and cleanly; ``run`` returns the exception's
        value.  An awaited event that fails raises its exception.
        """
        stop_event: Optional[Event] = None
        stop_time = float("inf")
        if isinstance(until, Event):
            stop_event = until
            if stop_event.processed:
                return stop_event._value
        elif until is not None:
            stop_time = float(until)
            if stop_time < self._now:
                raise ValueError(f"until={stop_time} is in the past (now={self._now})")

        while self._queue:
            if self.peek() > stop_time:
                self._now = stop_time
                return None
            try:
                self.step()
            except StopSimulation as stop:
                return stop.value
            if stop_event is not None and stop_event.processed:
                if not stop_event.ok:
                    raise stop_event._value
                return stop_event._value

        if stop_event is not None:
            raise RuntimeError(
                "simulation ran out of events before the awaited event fired"
            )
        if stop_time != float("inf"):
            self._now = stop_time
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Engine t={self._now:.6f} pending={len(self._queue)}>"
