"""ASCII trace timelines and span-log loading for ``repro trace``.

:func:`render_timeline` turns the spans of one trace into an indented
Gantt-style chart — one line per span, positioned and scaled against the
trace's total wall-clock window::

    trace 4be31c2e9f0d11aa — 6 spans, 812.4 ms
    serve.request             0.0ms |=====================| 812.4ms status=202
      serve.queue_wait        1.1ms |=|                      14.0ms
      serve.worker           15.2ms  |===================|  795.1ms
        sweep.run_scenario   16.0ms  |===================|  790.2ms ...

Span *trees* are rebuilt from ``parent_id`` links; orphans (parent fell
out of the ring buffer or lives in an unshipped process) render as
additional roots rather than disappearing.
"""

from __future__ import annotations

import json
import warnings
from typing import Dict, List, Optional, Sequence, Tuple

from .analyze import span_tree
from .logs import kv

__all__ = ["render_timeline", "load_span_log", "group_traces",
           "find_orphans"]

_BAR_WIDTH = 28


def load_span_log(path: str) -> List[Dict[str, object]]:
    """Every valid span of a JSONL span log (bad lines warn, not raise)."""
    spans: List[Dict[str, object]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                span = json.loads(line)
            except ValueError as exc:
                warnings.warn(f"{path}:{lineno}: skipping bad span line "
                              f"({exc})", stacklevel=2)
                continue
            if isinstance(span, dict) and "trace_id" in span:
                spans.append(span)
            else:
                warnings.warn(f"{path}:{lineno}: skipping non-span line",
                              stacklevel=2)
    return spans


def group_traces(spans: Sequence[Dict[str, object]]
                 ) -> Dict[str, List[Dict[str, object]]]:
    """Spans grouped by trace id, ordered by each trace's first start."""
    groups: Dict[str, List[Dict[str, object]]] = {}
    for span in spans:
        groups.setdefault(str(span["trace_id"]), []).append(span)
    ordered = sorted(groups.items(),
                     key=lambda item: min(s.get("start_ts", 0.0)
                                          for s in item[1]))
    return dict(ordered)


def find_orphans(spans: Sequence[Dict[str, object]]
                 ) -> List[Dict[str, object]]:
    """Spans whose recorded parent is missing from the span set.

    Orphans mean the log is incomplete: the parent fell out of the ring
    buffer, lives in a process whose spans were never shipped home, or the
    log rotated mid-trace.  ``repro trace`` turns a non-empty result into
    a diagnostic (and a non-zero exit) so truncated timelines are never
    mistaken for complete ones.
    """
    return [span for span in span_tree(spans).roots
            if span.get("parent_id") is not None]


def _attr_summary(attrs: Dict[str, object], limit: int = 4) -> str:
    flat: Dict[str, object] = {}
    for key, value in (attrs or {}).items():
        if key == "perf" and isinstance(value, dict):
            for counter, delta in value.items():
                flat[f"perf.{counter}"] = delta
        else:
            flat[key] = value
    shown = dict(list(flat.items())[:limit])
    text = kv(**shown)
    if len(flat) > limit:
        text += " …"
    return text


def _bar(offset_s: float, duration_s: float, total_s: float) -> str:
    if total_s <= 0:
        return "|" + "=" * _BAR_WIDTH + "|"
    start = int(round(_BAR_WIDTH * offset_s / total_s))
    length = max(1, int(round(_BAR_WIDTH * duration_s / total_s)))
    start = min(start, _BAR_WIDTH - 1)
    length = min(length, _BAR_WIDTH - start)
    return " " * start + "|" + "=" * length + "|"


def render_timeline(spans: Sequence[Dict[str, object]],
                    trace_id: Optional[str] = None) -> str:
    """The spans of one trace as an indented ASCII timeline."""
    spans = [dict(span) for span in spans
             if trace_id is None or span.get("trace_id") == trace_id]
    if not spans:
        return "(no spans)"
    spans.sort(key=lambda s: (s.get("start_ts", 0.0),
                              s.get("duration_s", 0.0)))
    t0 = min(s.get("start_ts", 0.0) for s in spans)
    end = max(s.get("start_ts", 0.0) + s.get("duration_s", 0.0)
              for s in spans)
    total = end - t0

    # Walk the tree once, in render order; spans stuck in a parent cycle
    # are unreachable from every root and stay out of the chart.
    tree = span_tree(spans)
    rows: List[Tuple[Dict[str, object], int]] = []

    def walk(span: Dict[str, object], depth: int) -> None:
        rows.append((span, depth))
        for child in tree.children.get(str(span.get("span_id")), []):
            walk(child, depth + 1)

    for root in tree.roots:
        walk(root, 0)
    name_width = max((len(str(s.get("name", "?"))) + 2 * depth
                      for s, depth in rows), default=0)
    tid = str(spans[0].get("trace_id", "?"))
    lines = [f"trace {tid} — {len(spans)} spans, {total * 1e3:.1f} ms"]
    for span, depth in rows:
        name = "  " * depth + str(span.get("name", "?"))
        offset = span.get("start_ts", 0.0) - t0
        duration = span.get("duration_s", 0.0)
        line = (f"{name:<{name_width}} {offset * 1e3:>9.1f}ms "
                f"{_bar(offset, duration, total):<{_BAR_WIDTH + 2}} "
                f"{duration * 1e3:>9.1f}ms")
        summary = _attr_summary(span.get("attrs") or {})
        if summary:
            line += f"  {summary}"
        parent = span.get("parent_id")
        if depth == 0 and parent is not None:       # a root with a parent
            line += f"  [orphan: parent {str(parent)[:16]} not in log]"
        lines.append(line.rstrip())
    return "\n".join(lines)
