"""Trace analytics: op aggregates, critical paths, trace diffs.

Raw spans answer "what happened in *this* trace"; this module answers the
aggregate questions a slow system poses across *many* traces:

* :func:`aggregate_ops` — per-op latency distribution (p50/p95/p99/max)
  with **self-time** separated from child-time, so a parent span that
  merely waits on its children does not read as hot.
* :func:`critical_path` — the chain of spans that determined one trace's
  end-to-end latency: from the root, repeatedly descend into the child
  that *finishes last* (the one the parent actually waited for).
* :func:`diff_traces` — attribute the latency delta between two span sets
  (``fast_path`` on vs off, yesterday's log vs today's) to specific ops.

Everything operates on plain span dicts — the tracer's ring buffer
(:meth:`~repro.obs.trace.Tracer.spans`) and JSONL span logs
(:func:`~repro.obs.timeline.load_span_log`) feed it equally.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, NamedTuple, Optional, Sequence

__all__ = ["aggregate_ops", "critical_path", "diff_traces", "percentile",
           "self_times", "SpanTree", "span_tree"]

_SpanDict = Dict[str, object]


class SpanTree(NamedTuple):
    """A span set's parent→children links; ``roots`` holds true roots and
    orphans (parent missing from the set) in input order."""

    by_id: Dict[str, _SpanDict]
    children: Dict[str, List[_SpanDict]]
    roots: List[_SpanDict]


def span_tree(spans: Sequence[_SpanDict]) -> SpanTree:
    """Rebuild the span tree from ``parent_id`` links, keyed by
    ``str(span_id)`` — the one place the timeline renderer and the
    analytics derive parent/child maps from."""
    by_id = {str(span.get("span_id")): span for span in spans}
    children: Dict[str, List[_SpanDict]] = defaultdict(list)
    roots: List[_SpanDict] = []
    for span in spans:
        parent = span.get("parent_id")
        if parent is not None and str(parent) in by_id:
            children[str(parent)].append(span)
        else:
            roots.append(span)
    return SpanTree(by_id, children, roots)


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """The ``q``-quantile (0..1) of ascending values, linearly interpolated."""
    if not sorted_values:
        return 0.0
    if len(sorted_values) == 1:
        return float(sorted_values[0])
    pos = q * (len(sorted_values) - 1)
    lower = int(pos)
    upper = min(lower + 1, len(sorted_values) - 1)
    frac = pos - lower
    return float(sorted_values[lower] * (1.0 - frac)
                 + sorted_values[upper] * frac)


def _duration(span: _SpanDict) -> float:
    try:
        return max(0.0, float(span.get("duration_s", 0.0)))
    except (TypeError, ValueError):
        return 0.0


def self_times(spans: Sequence[_SpanDict]) -> Dict[str, float]:
    """Per-span self time: duration minus the sum of child durations.

    Clamped at zero — overlapping children (parallel work under one
    parent) can sum past the parent's wall time.
    """
    children = span_tree(spans).children

    def own(span: _SpanDict) -> float:
        kids = children.get(str(span.get("span_id")), ())
        return max(0.0, _duration(span) - sum(_duration(k) for k in kids))

    return {str(span.get("span_id")): own(span) for span in spans}


def aggregate_ops(spans: Sequence[_SpanDict]) -> List[Dict[str, object]]:
    """Latency aggregates per op name, heaviest total first."""
    selfs = self_times(spans)
    durations: Dict[str, List[float]] = defaultdict(list)
    self_total: Dict[str, float] = defaultdict(float)
    errors: Dict[str, int] = defaultdict(int)
    for span in spans:
        op = str(span.get("name", "?"))
        durations[op].append(_duration(span))
        self_total[op] += selfs.get(str(span.get("span_id")), 0.0)
        attrs = span.get("attrs")
        if isinstance(attrs, dict) and attrs.get("error"):
            errors[op] += 1
    rows: List[Dict[str, object]] = []
    for op, values in durations.items():
        values.sort()
        rows.append({
            "op": op,
            "count": len(values),
            "errors": errors[op],
            "total_s": sum(values),
            "self_s": self_total[op],
            "p50_s": percentile(values, 0.50),
            "p95_s": percentile(values, 0.95),
            "p99_s": percentile(values, 0.99),
            "max_s": values[-1],
        })
    rows.sort(key=lambda row: (-row["total_s"], row["op"]))
    return rows


def _end_ts(span: _SpanDict) -> float:
    try:
        return float(span.get("start_ts", 0.0)) + _duration(span)
    except (TypeError, ValueError):
        return _duration(span)


def critical_path(spans: Sequence[_SpanDict],
                  trace_id: Optional[str] = None) -> List[Dict[str, object]]:
    """The chain of spans that determined one trace's wall time.

    From the root (the longest span with no recorded parent), repeatedly
    descend into the child that finishes last — the child the parent was
    still waiting on.  Each step's ``self_s`` is the portion of the step
    *not* covered by the next step down, i.e. its own contribution to the
    end-to-end latency.  Empty when no spans match.
    """
    if trace_id is not None:
        spans = [s for s in spans if s.get("trace_id") == trace_id]
    if not spans:
        return []
    tree = span_tree(spans)
    # A fully cyclic parent chain (corrupt log) leaves no roots; fall back
    # to the longest span so the path is still non-empty and terminates.
    node = max(tree.roots or spans, key=_duration)
    path: List[Dict[str, object]] = []
    seen = set()
    depth = 0
    while node is not None:
        span_id = str(node.get("span_id"))
        if span_id in seen:        # defensive: a cyclic parent chain
            break
        seen.add(span_id)
        kids = tree.children.get(span_id)
        nxt = max(kids, key=_end_ts) if kids else None
        path.append({
            "name": str(node.get("name", "?")),
            "span_id": span_id,
            "depth": depth,
            "start_ts": node.get("start_ts", 0.0),
            "duration_s": _duration(node),
            "self_s": max(0.0, _duration(node)
                          - (_duration(nxt) if nxt is not None else 0.0)),
        })
        node = nxt
        depth += 1
    return path


def diff_traces(before: Sequence[_SpanDict], after: Sequence[_SpanDict],
                ) -> List[Dict[str, object]]:
    """Attribute the latency delta between two span sets to specific ops.

    Compares per-op *totals* (and per-call means, robust to different
    call counts between the two sets); positive ``delta_s`` means the op
    got slower in ``after``.  Ordered by absolute delta, largest first.
    """
    agg_before = {row["op"]: row for row in aggregate_ops(before)}
    agg_after = {row["op"]: row for row in aggregate_ops(after)}
    rows: List[Dict[str, object]] = []
    for op in sorted(set(agg_before) | set(agg_after)):
        b, a = agg_before.get(op), agg_after.get(op)
        b_total = b["total_s"] if b else 0.0
        a_total = a["total_s"] if a else 0.0
        b_count = b["count"] if b else 0
        a_count = a["count"] if a else 0
        rows.append({
            "op": op,
            "before_count": b_count,
            "after_count": a_count,
            "before_total_s": b_total,
            "after_total_s": a_total,
            "delta_s": a_total - b_total,
            "before_mean_s": (b_total / b_count) if b_count else 0.0,
            "after_mean_s": (a_total / a_count) if a_count else 0.0,
            "delta_self_s": (a["self_s"] if a else 0.0)
                            - (b["self_s"] if b else 0.0),
        })
    rows.sort(key=lambda row: (-abs(row["delta_s"]), row["op"]))
    return rows
