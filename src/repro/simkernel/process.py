"""Generator-based simulation processes.

A :class:`Process` wraps a Python generator.  The generator ``yield``\\ s
:class:`~repro.simkernel.events.Event` instances; the process is resumed with
the event's value when it fires (or the event's exception is thrown into the
generator when it failed).  A process is itself an event that fires with the
generator's return value, so processes can wait on each other.
"""

from __future__ import annotations

from typing import Any, Generator, Optional, TYPE_CHECKING

from .events import Event, Interrupt

if TYPE_CHECKING:  # pragma: no cover
    from .engine import Engine

__all__ = ["Process"]


class Process(Event):
    """A running simulation process.

    Parameters
    ----------
    engine:
        The owning :class:`~repro.simkernel.engine.Engine`.
    generator:
        The generator implementing the process body.
    name:
        Optional human-readable name used in traces and ``repr``.
    """

    __slots__ = ("generator", "name", "_target")

    def __init__(self, engine: "Engine", generator: Generator, name: str = ""):
        super().__init__(engine)
        if not hasattr(generator, "send"):
            raise TypeError("Process requires a generator")
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self._target: Optional[Event] = None
        # Kick the process off via an immediately-successful event.
        init = Event(engine)
        init._ok = True
        init._value = None
        init.add_callback(self._resume)
        engine._schedule(init)

    @property
    def is_alive(self) -> bool:
        """True while the underlying generator has not finished."""
        return self._ok is None

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        Interrupting a finished process is a no-op.
        """
        if not self.is_alive:
            return
        ev = Event(self.engine)
        ev._ok = False
        ev._value = Interrupt(cause)
        ev.add_callback(self._resume_interrupt)
        self.engine._schedule(ev, priority=0)

    # -- internal ----------------------------------------------------------
    def _resume_interrupt(self, event: Event) -> None:
        if not self.is_alive:
            return
        # Detach from whatever we were waiting on: the stale wake-up must be
        # ignored when it eventually fires.
        if self._target is not None and self._target.callbacks is not None:
            if self._resume in self._target.callbacks:
                self._target.callbacks.remove(self._resume)
        self._target = None
        self._step(event._value, failed=True)

    def _resume(self, event: Event) -> None:
        if not self.is_alive:
            return
        if self._target is not None and event is not self._target:
            # A stale event (e.g. superseded by an interrupt); ignore it.
            return
        self._target = None
        self._step(event._value, failed=not event._ok)

    def _step(self, value: Any, failed: bool) -> None:
        try:
            if failed:
                target = self.generator.throw(value)
            else:
                target = self.generator.send(value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except Interrupt as exc:
            # An un-handled interrupt terminates the process as failed.
            self.fail(exc)
            return

        if not isinstance(target, Event):
            raise TypeError(
                f"process {self.name!r} yielded {target!r}, expected an Event"
            )
        self._target = target
        target.add_callback(self._resume)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "alive" if self.is_alive else "done"
        return f"<Process {self.name!r} {state}>"
