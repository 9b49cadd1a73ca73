"""Span export to the Chrome trace event format (Perfetto).

:func:`chrome_trace` converts span dicts (the tracer ring or a JSONL span
log) into the Chrome trace event format — load the JSON at
``ui.perfetto.dev`` or ``chrome://tracing`` and every sweep worker becomes
its own process track (``pid`` from the worker-stamped span attr, one
``tid`` lane per trace within a pid).  A pure function, free of I/O, so
it is golden-file testable; ``repro trace --format chrome`` writes it.
"""

from __future__ import annotations

import json
from typing import Dict, List, Sequence, Tuple

__all__ = ["chrome_trace", "chrome_trace_json"]


def _span_pid(span: Dict[str, object]) -> int:
    attrs = span.get("attrs") or {}
    try:
        return int(attrs.get("pid", 0))
    except (TypeError, ValueError):
        return 0


def chrome_trace(spans: Sequence[Dict[str, object]]) -> Dict[str, object]:
    """Span dicts → a Chrome trace event document (Perfetto-loadable).

    Spans are complete events (``ph: "X"``); timestamps are microseconds
    of wall clock (``start_ts`` is wall seconds).  Worker spans carry a
    ``pid`` attr stamped at capture time; anything unstamped renders as
    pid 0 (the submitting process).  Within a pid each trace id gets its
    own small-integer ``tid`` lane so concurrent traces do not overlap.
    """
    tids: Dict[Tuple[int, str], int] = {}
    next_tid: Dict[int, int] = {}
    events: List[Dict[str, object]] = []
    for span in spans:
        if not isinstance(span, dict) or "start_ts" not in span:
            continue
        pid = _span_pid(span)
        trace_id = str(span.get("trace_id", ""))
        lane = (pid, trace_id)
        if lane not in tids:
            next_tid[pid] = next_tid.get(pid, 0) + 1
            tids[lane] = next_tid[pid]
        args = dict(span.get("attrs") or {})
        args.update(trace_id=trace_id,
                    span_id=span.get("span_id"),
                    parent_id=span.get("parent_id"))
        events.append({
            "ph": "X",
            "name": str(span.get("name", "?")),
            "cat": "repro",
            "ts": float(span.get("start_ts", 0.0)) * 1e6,
            "dur": max(0.0, float(span.get("duration_s") or 0.0) * 1e6),
            "pid": pid,
            "tid": tids[lane],
            "args": args,
        })
    events.sort(key=lambda e: (e["ts"], e["pid"], e["tid"], e["name"]))
    meta: List[Dict[str, object]] = []
    for pid in sorted(next_tid):
        name = "repro" if pid == 0 else f"worker-{pid}"
        meta.append({"ph": "M", "name": "process_name", "pid": pid,
                     "tid": 0, "args": {"name": name}})
    for (pid, trace_id), tid in sorted(tids.items(),
                                       key=lambda item: item[1]):
        meta.append({"ph": "M", "name": "thread_name", "pid": pid,
                     "tid": tid,
                     "args": {"name": f"trace-{trace_id[:8] or '?'}"}})
    return {"traceEvents": meta + events, "displayTimeUnit": "ms"}


def chrome_trace_json(spans: Sequence[Dict[str, object]]) -> str:
    return json.dumps(chrome_trace(spans), indent=None,
                      separators=(",", ":")) + "\n"
