"""Discrete-event simulation kernel used by the network and NWS simulators."""

from .engine import Engine, StopSimulation
from .events import AllOf, Event, Interrupt, Timeout
from .process import Process
from .rng import derive_seed
from .trace import TraceRecord, Tracer

__all__ = [
    "Engine",
    "StopSimulation",
    "Event",
    "Timeout",
    "AllOf",
    "Interrupt",
    "Process",
    "derive_seed",
    "Tracer",
    "TraceRecord",
]
