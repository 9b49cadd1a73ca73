"""The indexed result store behind the serving layer.

The JSONL result store (:mod:`repro.sweep.results`) is append-only and
schema-light — perfect for sweeps, terrible for queries: answering
"the latest record of scenario X" used to mean parsing *every* line of the
file (:func:`~repro.sweep.results.load_jsonl` is O(store) per call).

:class:`ResultStore` keeps an in-memory index mapping each record's
``(scenario, family, scenario_hash, code_version, status)`` to its byte
span in the store, so filtered queries **seek** straight to the matching
records and parse only those.  The index is:

* **incremental** — every public read first indexes whatever was appended
  since the last one, by whichever process: one ``stat`` when nothing
  was, a scan of only the new tail when something was.
* **torn-tail safe** — a partial trailing line (a concurrent append still
  being written) is left un-indexed until its newline lands.
* **self-healing** — a store that shrank is re-indexed from scratch; one
  replaced out of band without shrinking surfaces as a parse error on
  fetch, and the query rebuilds once and answers.

Nothing is written beside the store: a new process indexes it with one
full pass on its first read.

Work accounting lives in :attr:`ResultStore.stats` (records parsed, bytes
read, tail scans, full rebuilds, queries served) so benchmarks can assert
that indexed queries really avoid full-file parses.
"""

from __future__ import annotations

import os
import threading
from itertools import chain
from operator import attrgetter, itemgetter
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from ..obs.logs import get_logger, kv
from ..obs.metrics import REGISTRY
from ..sweep.results import SweepRecord, append_jsonl

__all__ = ["ResultStore", "IndexEntry", "index_path"]

_LOG = get_logger("serve.store")

_FALLBACK_RECORDS = REGISTRY.counter(
    "repro_store_fallback_records_total",
    "result records held in memory because the disk refused them")

#: Filter columns carried per index entry: everything a filtered query
#: needs without touching the store file.
_FIELDS = ("scenario", "family", "scenario_hash", "code_version", "status")
_columns = attrgetter(*_FIELDS)


def index_path(store_path: str) -> str:
    """Where older versions persisted a store's index (``results.jsonl`` →
    ``results.idx.json``).  The store no longer writes this file; the name
    stays so tools can clear one left behind."""
    base = store_path[:-len(".jsonl")] if store_path.endswith(".jsonl") \
        else store_path
    return base + ".idx.json"


def _parse(line: bytes) -> SweepRecord:
    """One store line as a record (:class:`ValueError` if it is none).

    The scan and the loader both parse through here, so a fetched span
    parses exactly as it did when it was indexed.
    """
    return SweepRecord.from_json(line.strip().decode("utf-8"))


class IndexEntry:
    """One indexed record: byte span in the store plus its filter columns."""

    __slots__ = ("offset", "length") + _FIELDS

    def __init__(self, offset: int, length: int, scenario: str, family: str,
                 scenario_hash: str, code_version: str, status: str) -> None:
        self.offset = offset
        self.length = length
        self.scenario = scenario
        self.family = family
        self.scenario_hash = scenario_hash
        self.code_version = code_version
        self.status = status


#: A query match: an index entry, or a record held only in memory.  Both
#: carry the filter columns under the same attribute names.
Match = Union[IndexEntry, SweepRecord]


class ResultStore:
    """Indexed, query-friendly view of one JSONL result store.

    Thread-safe: the serving layer queries from the event loop and the
    metrics-history thread while job threads append to the store file.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._entries: List[IndexEntry] = []
        self._indexed_size = 0          # store bytes the index covers
        #: Records the disk refused (ENOSPC, torn appends): queries merge
        #: them in as the *newest* records so clients never lose a result
        #: to a full disk; :meth:`flush` retries landing them.
        self._fallback: List[SweepRecord] = []
        self._lock = threading.RLock()
        self.stats: Dict[str, int] = {
            "queries": 0,
            "records_parsed": 0,        # store lines json-parsed (any reason)
            "records_served": 0,        # records read back from the store
            "bytes_read": 0,            # store bytes read (scan + fetch)
            "tail_scans": 0,
            "full_rebuilds": 0,
        }

    def flush(self) -> None:
        """Retry appending the in-memory fallback records to the store."""
        with self._lock:
            fallback = list(self._fallback)
        if not fallback:
            return
        # Append outside the lock: the disk may be slow to refuse again.
        try:
            append_jsonl(self.path, fallback)
        except OSError as exc:
            _LOG.warning("event=fallback_flush_failed %s",
                         kv(path=self.path, records=len(fallback),
                            error=str(exc)))
            return
        with self._lock:
            del self._fallback[:len(fallback)]
        _LOG.warning("event=fallback_flushed %s",
                     kv(path=self.path, records=len(fallback)))

    #: Shutdown only has fallback records left to land.
    close = flush

    # -- degraded mode -------------------------------------------------------

    def remember(self, records: Sequence[SweepRecord]) -> None:
        """Hold ``records`` in memory because the disk refused them.

        They are served from every query path as the newest records; a
        later :meth:`flush` (periodic, or the shutdown drain) retries
        appending them to the store file.  Degradation, never a 500.
        """
        if not records:
            return
        with self._lock:
            self._fallback.extend(records)
        _FALLBACK_RECORDS.inc(len(records))
        _LOG.warning("event=store_degraded %s",
                     kv(records=len(records),
                        held=self.fallback_count(),
                        scenarios=",".join(sorted({r.scenario
                                                   for r in records}))))

    def fallback_count(self) -> int:
        """Records currently held only in memory (gauge callback)."""
        with self._lock:
            return len(self._fallback)

    # -- index maintenance --------------------------------------------------

    def _store_size(self) -> int:
        try:
            return os.stat(self.path).st_size
        except OSError:
            return 0

    def refresh(self) -> None:
        """Index whatever was appended since the last read (one ``stat``
        when nothing was); a store that shrank is re-indexed from scratch."""
        with self._lock:
            size = self._store_size()
            if size < self._indexed_size:
                self._entries, self._indexed_size = [], 0
            if size != self._indexed_size:
                self._scan(size)

    def _scan(self, size: int) -> None:
        """Index every complete record line in ``path[indexed:size]``.

        Corrupt/invalid lines are skipped (they stay invisible to queries,
        exactly as :func:`load_jsonl` skips them).  A partial trailing line
        (a torn concurrent append) is left un-indexed *and* uncovered, so
        the next refresh re-examines it once the writer finished.
        """
        start = self._indexed_size
        self.stats["tail_scans" if start else "full_rebuilds"] += 1
        with open(self.path, "rb") as handle:
            handle.seek(start)
            blob = handle.read(size - start)
        self.stats["bytes_read"] += len(blob)
        lines = blob.split(b"\n")
        lines.pop()                     # the partial line, or b"" after "\n"
        self.stats["records_parsed"] += len(lines)
        offset = start
        for line in lines:
            try:
                columns = _columns(_parse(line))
            except ValueError:
                columns = None          # not a record: skipped, never served
            if columns is not None:
                self._entries.append(IndexEntry(offset, len(line), *columns))
            offset += len(line) + 1
        self._indexed_size = offset

    def _recovering(self, read):
        """Run ``read`` on a fresh index, rebuilding once if its entries
        point at garbage.

        Size checks catch a *shrunken* replaced store; an out-of-band
        replacement with same-or-larger size can leave entries whose byte
        spans no longer frame whole records, which surfaces as a parse
        error in :meth:`_load`.  One full rebuild restores the invariant.
        """
        with self._lock:
            self.refresh()
            try:
                return read()
            except ValueError:
                self._entries, self._indexed_size = [], 0
                self.refresh()
                return read()

    # -- queries ------------------------------------------------------------

    def indexed_size(self) -> int:
        """Store bytes the index covers (gauge callback)."""
        with self._lock:
            self.refresh()
            return self._indexed_size

    def state_token(self) -> str:
        """A token that changes whenever query results may change (cache
        key component for response caches)."""
        with self._lock:
            self.refresh()
            token = f"{self._indexed_size}-{len(self._entries)}"
            if self._fallback:
                token += f"-m{len(self._fallback)}"
            return token

    def count(self) -> int:
        with self._lock:
            self.refresh()
            return len(self._entries) + len(self._fallback)

    def _newest_first(self, filters: Dict[str, str]) -> Iterator[Match]:
        """Every match of ``filters``, newest first: the fallback records
        (the latest appends), then the index.  Lazy, so a caller that
        wants one match stops at it; run it under the lock."""
        matches = chain(reversed(self._fallback), reversed(self._entries))
        if not filters:
            return matches
        # One C-level getter per match, compared as a whole: a per-column
        # generator costs several times more on the polled latest route.
        columns = attrgetter(*filters)
        wanted = itemgetter(*filters)(filters)
        return (match for match in matches if columns(match) == wanted)

    def _load(self, matches: Sequence[Match]) -> List[SweepRecord]:
        """The records behind ``matches``: fallback records as they are,
        index entries read from their byte span and parsed."""
        if all(isinstance(match, SweepRecord) for match in matches):
            return list(matches)
        records: List[SweepRecord] = []
        with open(self.path, "rb") as handle:
            for match in matches:
                if isinstance(match, IndexEntry):
                    handle.seek(match.offset)
                    blob = handle.read(match.length)
                    self.stats["bytes_read"] += len(blob)
                    self.stats["records_parsed"] += 1
                    self.stats["records_served"] += 1
                    match = _parse(blob)
                records.append(match)
        return records

    @staticmethod
    def _filters(scenario: Optional[str] = None, family: Optional[str] = None,
                 scenario_hash: Optional[str] = None,
                 code_version: Optional[str] = None,
                 status: Optional[str] = None) -> Dict[str, str]:
        raw = {"scenario": scenario, "family": family,
               "scenario_hash": scenario_hash, "code_version": code_version,
               "status": status}
        return {key: value for key, value in raw.items() if value is not None}

    def query(self, scenario: Optional[str] = None,
              family: Optional[str] = None,
              scenario_hash: Optional[str] = None,
              code_version: Optional[str] = None,
              status: Optional[str] = None,
              offset: int = 0,
              limit: Optional[int] = None,
              newest_first: bool = False,
              ) -> Tuple[List[SweepRecord], int]:
        """Filtered, paginated records in append order (``newest_first``
        flips it, so page 0 holds the most recent appends — the shape a
        poller wants).

        Returns ``(records, total)`` where ``total`` counts every match
        before pagination.  Only the returned page is read from disk.
        """
        if offset < 0 or (limit is not None and limit < 0):
            raise ValueError("offset/limit must be non-negative")
        filters = self._filters(scenario, family, scenario_hash,
                                code_version, status)

        def read() -> Tuple[List[SweepRecord], int]:
            self.stats["queries"] += 1
            matches = list(self._newest_first(filters))
            if not newest_first:
                matches.reverse()
            end = None if limit is None else offset + limit
            return self._load(matches[offset:end]), len(matches)

        return self._recovering(read)

    def latest_entry(self, scenario: str,
                     status: Optional[str] = None) -> Optional[Match]:
        """The newest index entry (or in-memory record) of ``scenario`` —
        existence, hash and code version without reading the store body
        (conditional requests answer from this alone)."""
        with self._lock:
            self.refresh()
            self.stats["queries"] += 1
            return next(self._newest_first(
                self._filters(scenario=scenario, status=status)), None)

    def latest(self, scenario: str,
               status: Optional[str] = None) -> Optional[SweepRecord]:
        """The most recently appended record of ``scenario`` (or ``None``)."""
        def read() -> Optional[SweepRecord]:
            match = self.latest_entry(scenario, status)
            return None if match is None else self._load([match])[0]

        return self._recovering(read)

    def latest_per_scenario(self,
                            family: Optional[str] = None,
                            status: Optional[str] = None,
                            ) -> List[SweepRecord]:
        """The newest record of every scenario (optionally filtered),
        sorted by scenario name."""
        filters = self._filters(family=family, status=status)

        def read() -> List[SweepRecord]:
            self.stats["queries"] += 1
            newest: Dict[str, Match] = {}
            for match in self._newest_first(filters):
                newest.setdefault(match.scenario, match)
            return self._load([newest[name] for name in sorted(newest)])

        return self._recovering(read)
