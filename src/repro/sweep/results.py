"""Sweep result records, the JSONL result store and summary tables."""

from __future__ import annotations

import json
import os
import warnings
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Sequence

from ..ioutils import append_line

__all__ = ["SweepRecord", "append_jsonl", "load_jsonl", "summary_rows",
           "records_json", "default_store_path"]


@dataclass
class SweepRecord:
    """Outcome of running (or cache-loading) one scenario of a sweep."""

    scenario: str
    family: str
    scenario_hash: str
    code_version: str
    status: str = "ok"                     # "ok" | "error" | "failed"
    cached: bool = False
    elapsed_s: float = 0.0
    #: Flat pipeline digest (:meth:`repro.pipeline.PipelineResult.summary`).
    summary: Optional[Dict[str, object]] = None
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    #: Fields a stored record must carry; anything else falls back to the
    #: dataclass defaults.  ``scenario_hash`` may legitimately be empty (error
    #: records of unresolvable scenarios), ``scenario`` may not.
    _REQUIRED = ("scenario", "family", "scenario_hash", "code_version")

    @classmethod
    def from_json(cls, line: str) -> "SweepRecord":
        """Parse one store line, rejecting corrupt/truncated records.

        Raises :class:`ValueError` when the line is not a JSON object (or
        nests too deeply to parse), a required field is missing or
        mistyped, or the status is unknown — instead of silently
        constructing a record full of ``None``s.
        """
        try:
            data = json.loads(line)
        except RecursionError:
            raise ValueError("sweep record line nests too deeply") from None
        if not isinstance(data, dict):
            raise ValueError("sweep record line is not a JSON object")
        bad = [k for k in cls._REQUIRED if not isinstance(data.get(k), str)]
        if bad or not data["scenario"]:
            raise ValueError(f"sweep record missing required fields: "
                             f"{bad or ['scenario']}")
        if data.get("status", "ok") not in ("ok", "error", "failed"):
            raise ValueError(f"sweep record has unknown status "
                             f"{data.get('status')!r}")
        for key, kind in (("summary", dict), ("error", str)):
            if data.get(key) is not None and not isinstance(data[key], kind):
                raise ValueError(f"sweep record field {key!r} has the "
                                 f"wrong type")
        elapsed = data.get("elapsed_s", 0.0)
        if isinstance(elapsed, bool) or not isinstance(elapsed, (int, float)):
            raise ValueError("sweep record field 'elapsed_s' has the "
                             "wrong type")
        if not isinstance(data.get("cached", False), bool):
            raise ValueError("sweep record field 'cached' has the wrong type")
        return cls(**{k: data[k] for k in cls.__dataclass_fields__
                      if k in data})


def default_store_path(cache_dir: str) -> str:
    """The JSONL result store a cache directory's sweeps append to."""
    return os.path.join(cache_dir, "results.jsonl")


def append_jsonl(path: str, records: Sequence[SweepRecord]) -> None:
    """Append ``records`` to the JSONL result store at ``path``.

    The whole batch goes down in one unbuffered ``O_APPEND`` write, so two
    processes appending to the same store concurrently (a sweep CLI and a
    running ``repro serve``) can interleave only at record boundaries —
    never inside a line.
    """
    if not records:
        return
    payload = "".join(record.to_json() + "\n" for record in records)
    append_line(path, payload)


def load_jsonl(path: str) -> List[SweepRecord]:
    """All valid records of the JSONL result store at ``path``.

    Lines end at ``\\n`` only, as :class:`repro.serve.ResultStore` reads
    them.  Corrupt, truncated or non-UTF-8 lines (interrupted appends,
    partial writes) are skipped with a warning rather than poisoning every
    consumer of the store with half-parsed records.
    """
    records: List[SweepRecord] = []
    with open(path, "rb") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(SweepRecord.from_json(line.decode("utf-8")))
            except ValueError as exc:
                warnings.warn(f"{path}:{lineno}: skipping bad sweep record "
                              f"({exc})", stacklevel=2)
    return records


def _rounded(summary: Dict[str, object], key: str, digits: int) -> object:
    value = summary.get(key)
    return round(value, digits) if isinstance(value, (int, float)) else ""


def summary_rows(records: Sequence[SweepRecord]) -> List[Dict[str, object]]:
    """One flat table row per record (for :func:`analysis.report.render_table`).

    Rows are sorted by scenario name — deterministic regardless of the order
    parallel workers completed in or of cache-hit interleaving.
    """
    rows: List[Dict[str, object]] = []
    for record in sorted(records, key=lambda r: r.scenario):
        row: Dict[str, object] = {
            "scenario": record.scenario,
            "family": record.family,
            "status": record.status + (" (cached)" if record.cached else ""),
        }
        summary = record.summary or {}
        row.update({
            "hosts": summary.get("hosts", ""),
            "epochs": summary.get("epochs", ""),
            "cliques": summary.get("cliques", ""),
            "collisions": summary.get("collisions", ""),
            "harmful": summary.get("harmful_collisions", ""),
            "completeness": _rounded(summary, "completeness", 3),
            "bw_err": _rounded(summary, "bandwidth_error", 3),
            "worst_period_s": _rounded(summary, "worst_period_s", 1),
            "measurements": summary.get("measurements", ""),
            "elapsed_s": round(record.elapsed_s, 3),
        })
        rows.append(row)
    return rows


def records_json(records: Sequence[SweepRecord], indent: int = 2) -> str:
    """The records as a deterministic JSON array (sorted by scenario name)."""
    payload = [asdict(record)
               for record in sorted(records, key=lambda r: r.scenario)]
    return json.dumps(payload, sort_keys=True, indent=indent)
