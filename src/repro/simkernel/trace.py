"""Structured event tracing.

A :class:`Tracer` collects timestamped records emitted by simulation
components (flow start/stop, probe results, token passing, clique
measurements).  Analysis code consumes the records to compute measurement
frequency, intrusiveness and collision statistics without the components
having to know about each other.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional

__all__ = ["TraceRecord", "Tracer"]


@dataclass(frozen=True)
class TraceRecord:
    """One trace entry: a timestamp, a category, and arbitrary fields."""

    time: float
    category: str
    fields: Dict[str, Any] = field(default_factory=dict)

    def __getitem__(self, key: str) -> Any:
        return self.fields[key]

    def get(self, key: str, default: Any = None) -> Any:
        return self.fields.get(key, default)


class Tracer:
    """Collects :class:`TraceRecord` entries and supports simple queries."""

    def __init__(self):
        self.records: List[TraceRecord] = []

    def emit(self, time: float, category: str, **fields: Any) -> None:
        """Record an event at simulated ``time`` under ``category``."""
        self.records.append(TraceRecord(time=time, category=category,
                                        fields=dict(fields)))

    def clear(self) -> None:
        """Drop all collected records."""
        self.records.clear()

    # -- queries -----------------------------------------------------------
    def select(self, category: Optional[str] = None, **criteria: Any) -> List[TraceRecord]:
        """Return records matching ``category`` and all field ``criteria``."""
        out = []
        for rec in self.records:
            if category is not None and rec.category != category:
                continue
            if all(rec.get(k) == v for k, v in criteria.items()):
                out.append(rec)
        return out

    def categories(self) -> Dict[str, int]:
        """Count of records per category."""
        counts: Dict[str, int] = {}
        for rec in self.records:
            counts[rec.category] = counts.get(rec.category, 0) + 1
        return counts

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self.records)
