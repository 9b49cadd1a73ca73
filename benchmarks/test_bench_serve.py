"""SERVE — indexed result-store queries and HTTP request throughput.

Two promises the serving layer makes:

* ``GET /results?scenario=...`` over a big (≥5k records) JSONL store is
  answered **via the store's in-memory index** — once the index is built,
  a query parses only the matching records (asserted on the store's work
  counters) and beats the full-file parse ``load_jsonl`` needs by a wide
  margin;
* cached catalog queries (``GET /scenarios`` with a warm LRU) sustain at
  least 500 requests/second on a local socket.
"""

import asyncio
import json
import os
import time

from repro.analysis import render_table
from repro.serve import ReproApp, ResultStore, start_server
from repro.sweep import SweepRecord, append_jsonl, load_jsonl

N_RECORDS = 6000
N_SCENARIOS = 60
THROUGHPUT_REQUESTS = 1500
MIN_REQ_PER_S = 500


def _build_store(tmp_path):
    """A ≥5k-record store over N_SCENARIOS scenarios, realistic line sizes."""
    store_path = str(tmp_path / "results.jsonl")
    batch = []
    for i in range(N_RECORDS):
        scenario = f"scen-{i % N_SCENARIOS:03d}"
        batch.append(SweepRecord(
            scenario=scenario, family=f"fam-{i % 7}",
            scenario_hash=f"{i % N_SCENARIOS:064d}",
            code_version="c" * 64,
            status="ok" if i % 11 else "error",
            elapsed_s=0.25,
            summary={"hosts": 8 + i % 24, "completeness": 1.0,
                     "padding": "x" * 160}))
    append_jsonl(store_path, batch)
    return store_path


def test_bench_indexed_query_avoids_full_scan(tmp_path):
    store_path = _build_store(tmp_path)
    target = "scen-042"
    expected = N_RECORDS // N_SCENARIOS

    # Baseline: the pre-index access path parsed the whole store per query.
    start = time.perf_counter()
    full = [r for r in load_jsonl(store_path) if r.scenario == target]
    full_scan_s = time.perf_counter() - start
    assert len(full) == expected

    # Build the index once (one full pass), then query through it.
    store = ResultStore(store_path)
    start = time.perf_counter()
    store.refresh()
    build_s = time.perf_counter() - start
    assert store.stats["records_parsed"] == N_RECORDS
    parsed_before = store.stats["records_parsed"]
    read_before = store.stats["bytes_read"]
    start = time.perf_counter()
    records, total = store.query(scenario=target)
    indexed_s = time.perf_counter() - start
    assert total == expected and len(records) == expected

    # The core acceptance: the query parsed ONLY the matching records —
    # no full-file parse hides behind the timing.
    assert store.stats["records_parsed"] - parsed_before == expected, \
        store.stats
    assert store.stats["full_rebuilds"] == 1
    store_bytes = os.path.getsize(store_path)
    assert store.stats["bytes_read"] - read_before < store_bytes / 10

    start = time.perf_counter()
    latest = store.latest(target)
    latest_s = time.perf_counter() - start
    assert latest is not None
    store.close()

    speedup = full_scan_s / max(indexed_s, 1e-9)
    print(f"\n[SERVE] store queries over {N_RECORDS} records "
          f"({store_bytes / 1e6:.1f} MB)")
    print(render_table([
        {"access": "full scan (load_jsonl)", "records_parsed": N_RECORDS,
         "wall_s": round(full_scan_s, 4)},
        {"access": "index build (once per process)",
         "records_parsed": N_RECORDS, "wall_s": round(build_s, 4)},
        {"access": f"indexed query ({expected} matches)",
         "records_parsed": expected, "wall_s": round(indexed_s, 4)},
        {"access": "indexed latest (1 match)", "records_parsed": 1,
         "wall_s": round(latest_s, 4)},
    ]))
    print(f"indexed-query speedup over full scan: {speedup:.1f}x")
    assert speedup > 5.0


def test_bench_request_throughput(tmp_path):
    append_jsonl(str(tmp_path / "results.jsonl"),
                 [SweepRecord(scenario="s", family="f", scenario_hash="h",
                              code_version="c")])

    async def hammer():
        app = ReproApp(cache_dir=str(tmp_path))
        server, port = await start_server(app)
        try:
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            raw = (b"GET /scenarios HTTP/1.1\r\nHost: bench\r\n\r\n")

            async def one_request():
                writer.write(raw)
                await writer.drain()
                status_line = await reader.readline()
                assert b"200" in status_line
                length = 0
                while True:
                    line = await reader.readline()
                    if line in (b"\r\n", b""):
                        break
                    if line.lower().startswith(b"content-length:"):
                        length = int(line.split(b":")[1])
                await reader.readexactly(length)

            await one_request()                       # warm the LRU
            start = time.perf_counter()
            for _ in range(THROUGHPUT_REQUESTS):
                await one_request()
            elapsed = time.perf_counter() - start
            writer.close()
            await writer.wait_closed()
            return elapsed, app.cache.hits
        finally:
            server.close()
            await server.wait_closed()
            await app.close()

    elapsed, cache_hits = asyncio.run(hammer())
    rate = THROUGHPUT_REQUESTS / elapsed
    print(f"\n[SERVE] catalog throughput: {THROUGHPUT_REQUESTS} keep-alive "
          f"requests in {elapsed:.2f}s = {rate:.0f} req/s "
          f"(LRU hits: {cache_hits})")
    assert cache_hits >= THROUGHPUT_REQUESTS         # served from the LRU
    assert rate >= MIN_REQ_PER_S, f"{rate:.0f} req/s < {MIN_REQ_PER_S}"


def test_bench_job_submission_roundtrip(tmp_path):
    """POST /runs → job terminal → record queryable, end to end over HTTP."""

    async def run():
        app = ReproApp(cache_dir=str(tmp_path), pool_processes=2)
        server, port = await start_server(app)
        try:
            reader, writer = await asyncio.open_connection("127.0.0.1", port)

            async def request(method, target, body=b""):
                head = (f"{method} {target} HTTP/1.1\r\nHost: bench\r\n"
                        + (f"Content-Length: {len(body)}\r\n" if body
                           else "") + "\r\n").encode()
                writer.write(head + body)
                await writer.drain()
                status_line = await reader.readline()
                length = 0
                while True:
                    line = await reader.readline()
                    if line in (b"\r\n", b""):
                        break
                    if line.lower().startswith(b"content-length:"):
                        length = int(line.split(b":")[1])
                blob = await reader.readexactly(length)
                return int(status_line.split()[1]), blob

            start = time.perf_counter()
            status, blob = await request(
                "POST", "/runs",
                json.dumps({"scenario": "star-hub-8"}).encode())
            assert status == 202
            job = json.loads(blob)
            while True:
                status, blob = await request("GET", f"/runs/{job['id']}")
                state = json.loads(blob)
                if state["status"] not in ("queued", "running"):
                    break
                await asyncio.sleep(0.05)
            elapsed = time.perf_counter() - start
            assert state["status"] == "ok"
            status, blob = await request(
                "GET", "/results?scenario=star-hub-8")
            assert json.loads(blob)["total"] == 1
            writer.close()
            await writer.wait_closed()
            return elapsed
        finally:
            server.close()
            await server.wait_closed()
            await app.close()

    elapsed = asyncio.run(run())
    print(f"\n[SERVE] POST /runs round-trip (fresh star-hub-8 pipeline): "
          f"{elapsed:.2f}s")
