"""Tests of the serving layer: indexed store, HTTP API, jobs, catalog."""

import asyncio
import json
import logging
import os
import tempfile
import time
import warnings
from dataclasses import asdict

import pytest
from hypothesis import given, settings, strategies as st

from repro.cli import main
from repro.obs import REGISTRY, TRACER, load_span_log
from repro.serve import (
    JobQueue,
    QueueFull,
    ReproApp,
    Request,
    ResultStore,
    catalog_etag,
    catalog_payload,
    index_path,
    scenario_record,
    start_server,
)
from repro.serve.http import HTTPError, _read_request
from repro.scenarios import list_scenarios
from repro.scenarios.registry import register_scenario, unregister
from repro.sweep import (
    SweepRecord,
    append_jsonl,
    cache_path,
    default_store_path,
    load_jsonl,
    respawn_pool,
    run_sweep,
)

# ---------------------------------------------------------------------------
# helpers


def _record(scenario, family="test", status="ok", scenario_hash="h",
            code_version="c", **summary):
    return SweepRecord(scenario=scenario, family=family,
                       scenario_hash=scenario_hash, code_version=code_version,
                       status=status, error="boom" if status == "error"
                       else None,
                       summary=dict(summary) if summary else None)


def _scenarios(store):
    """Every scenario name with a stored record, sorted."""
    return [r.scenario for r in store.latest_per_scenario()]


@pytest.fixture
def store_path(tmp_path):
    return str(tmp_path / "results.jsonl")


@pytest.fixture
def store(store_path):
    store = ResultStore(store_path)
    yield store
    store.close()


async def _http(port, method, target, body=None, headers=None):
    """One request over a fresh connection; returns (status, headers, body)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        return await _roundtrip(reader, writer, method, target, body, headers)
    finally:
        writer.close()
        await writer.wait_closed()


async def _roundtrip(reader, writer, method, target, body=None, headers=None):
    payload = body if body is not None else b""
    lines = [f"{method} {target} HTTP/1.1", "Host: test"]
    if payload:
        lines.append(f"Content-Length: {len(payload)}")
    for key, value in (headers or {}).items():
        lines.append(f"{key}: {value}")
    writer.write(("\r\n".join(lines) + "\r\n\r\n").encode() + payload)
    await writer.drain()
    status_line = await reader.readline()
    status = int(status_line.split()[1])
    response_headers = {}
    while True:
        line = (await reader.readline()).decode().strip()
        if not line:
            break
        name, _, value = line.partition(":")
        response_headers[name.strip().lower()] = value.strip()
    length = int(response_headers.get("content-length", 0))
    blob = await reader.readexactly(length) if length else b""
    return status, response_headers, blob


def _with_app(coro_fn, **app_kwargs):
    """Run ``coro_fn(app, port)`` against a live server, then tear down."""
    async def runner():
        app = ReproApp(**app_kwargs)
        server, port = await start_server(app)
        try:
            return await coro_fn(app, port)
        finally:
            server.close()
            await server.wait_closed()
            await app.close()
    return asyncio.run(runner())


async def _wait_done(jobs, job, timeout=60.0):
    deadline = time.monotonic() + timeout
    while not job.done:
        assert time.monotonic() < deadline, "job did not finish in time"
        await asyncio.sleep(0.02)
    return job


# ---------------------------------------------------------------------------
# the indexed result store


class TestResultStore:
    def test_query_filters_and_pagination(self, store, store_path):
        append_jsonl(store_path, [
            _record("a", family="f1", hosts=1),
            _record("b", family="f2"),
            _record("a", family="f1", status="error"),
            _record("c", family="f1"),
        ])
        records, total = store.query(scenario="a")
        assert total == 2 and [r.scenario for r in records] == ["a", "a"]
        assert records[0].status == "ok" and records[1].status == "error"
        records, total = store.query(family="f1", status="ok")
        assert total == 2
        assert [r.scenario for r in records] == ["a", "c"]
        records, total = store.query(family="f1", offset=1, limit=1)
        assert total == 3 and len(records) == 1
        with pytest.raises(ValueError):
            store.query(offset=-1)

    def test_latest_and_latest_per_scenario(self, store, store_path):
        append_jsonl(store_path, [_record("a", hosts=1), _record("b")])
        append_jsonl(store_path, [_record("a", hosts=2)])
        assert store.latest("a").summary == {"hosts": 2}
        assert store.latest("missing") is None
        latest = store.latest_per_scenario()
        assert [r.scenario for r in latest] == ["a", "b"]
        assert latest[0].summary == {"hosts": 2}

    def test_tail_append_extends_index_incrementally(self, store, store_path):
        append_jsonl(store_path, [_record("a")])
        assert store.count() == 1
        parsed_before = store.stats["records_parsed"]
        append_jsonl(store_path, [_record("b"), _record("c")])
        assert store.count() == 3
        # The tail scan parsed exactly the two appended records.
        assert store.stats["records_parsed"] == parsed_before + 2
        assert store.stats["full_rebuilds"] <= 1

    def test_cross_process_style_append_seen_on_refresh(self, store,
                                                        store_path):
        append_jsonl(store_path, [_record("a")])
        assert store.count() == 1
        # Bypass the hook: simulate another process appending.
        with open(store_path, "ab") as handle:
            handle.write((_record("b").to_json() + "\n").encode())
        records, total = store.query(scenario="b")
        assert total == 1 and records[0].scenario == "b"

    def test_replaced_smaller_store_triggers_rebuild(self, store,
                                                    store_path):
        append_jsonl(store_path, [_record("a"), _record("b"), _record("c")])
        assert store.count() == 3
        os.unlink(store_path)
        append_jsonl(store_path, [_record("z")])
        assert _scenarios(store) == ["z"]
        assert store.stats["full_rebuilds"] == 2

    def test_same_size_out_of_band_replacement_recovers(self, store,
                                                        store_path):
        # A replaced store that did NOT shrink defeats the size check: the
        # index's byte spans point mid-record.  The first query that
        # fetches through them must rebuild and answer correctly instead
        # of erroring.
        append_jsonl(store_path, [_record("aaaa"), _record("bbbb")])
        assert store.count() == 2
        os.unlink(store_path)
        append_jsonl(store_path, [
            _record("replacement", payload="x" * 400),
            _record("tail"),
        ])
        records, total = store.query(scenario="aaaa")
        assert total == 0 and records == []
        assert store.stats["full_rebuilds"] == 2
        assert _scenarios(store) == ["replacement", "tail"]

    def test_corrupt_store_lines_invisible_to_queries(self, store,
                                                      store_path):
        append_jsonl(store_path, [_record("a")])
        with open(store_path, "ab") as handle:
            handle.write(b'{"scenario": "trunca\n[1, 2]\n')
        append_jsonl(store_path, [_record("b")])
        assert store.count() == 2
        assert _scenarios(store) == ["a", "b"]

    def test_partial_trailing_line_indexed_once_complete(self, store,
                                                         store_path):
        append_jsonl(store_path, [_record("a")])
        half = _record("b").to_json()
        with open(store_path, "ab") as handle:
            handle.write(half[:10].encode())        # torn concurrent append
        assert store.count() == 1
        with open(store_path, "ab") as handle:
            handle.write((half[10:] + "\n").encode())
        assert store.count() == 2
        assert _scenarios(store) == ["a", "b"]

    def test_state_token_tracks_appends(self, store, store_path):
        before = store.state_token()
        append_jsonl(store_path, [_record("a")])
        store.refresh()
        assert store.state_token() != before

    def test_missing_store_is_empty_not_an_error(self, store):
        assert store.count() == 0
        assert store.query() == ([], 0)
        assert store.latest_per_scenario() == []

    def test_stray_whitespace_byte_does_not_fail_fetches(self, tmp_path):
        # Regression: the scan indexed the stripped line (bytes.strip()
        # also drops \x0b and \x0c) while fetches parsed the raw span,
        # which json rejects: every query that read a record answered 500.
        store_file = default_store_path(str(tmp_path))
        with open(store_file, "wb") as handle:
            handle.write(_record("a", hosts=1).to_json().encode()
                         + b"\x0c\n")
            handle.write(_record("b").to_json().encode() + b"\x0b\n")
        expected = [asdict(r) for r in load_jsonl(store_file)]
        assert [r["scenario"] for r in expected] == ["a", "b"]
        responses = _handle(str(tmp_path), ("/results", {}),
                            ("/results/a/latest", {}),
                            ("/results", {"latest": "1"}))
        assert [r.status for r in responses] == [200, 200, 200]
        assert json.loads(responses[0].body)["records"] == expected
        assert json.loads(responses[1].body) == expected[0]
        assert json.loads(responses[2].body)["records"] == expected


def _handle(cache_dir, *targets):
    """GET each ``(path, query)`` through an in-process ``ReproApp``."""
    async def run():
        app = ReproApp(cache_dir=cache_dir)
        try:
            return [await app.handle(Request(method="GET", path=path,
                                             query=query))
                    for path, query in targets]
        finally:
            await app.close()
    return asyncio.run(run())


# ---------------------------------------------------------------------------
# the store boundary under arbitrary bytes

_SCENARIOS = ("a", "b", "c")
_RECORD_LINE = st.builds(
    lambda scenario, family, status, n: (_record(
        scenario, family=family, status=status, n=n).to_json() + "\n"
    ).encode(),
    st.sampled_from(_SCENARIOS), st.sampled_from(("f1", "f2")),
    st.sampled_from(("ok", "error", "failed")), st.integers(0, 9))
_FRAGMENT = st.one_of(
    _RECORD_LINE,
    _RECORD_LINE.map(lambda line: line[:-1] + b"\x0c\n"),
    _RECORD_LINE.flatmap(lambda line: st.integers(1, len(line) - 1).map(
        lambda cut: line[:cut])),                  # truncated record
    st.binary(max_size=8),
    st.sampled_from((
        b"\n", b"\r", b"\x0b", b"\x0c", b" ", b"\x80", b"\xff\xfe\n",
        b"[1, 2]\n", b'"a"\n', b"null\n", b"3\n", b"{}\n",
        b"[" * 5000 + b"\n",                        # nests too deeply
        '{"scenario": "\u00e9", "family": "f1", "scenario_hash": "h", '
        '"code_version": "c"}\n'.encode(),          # raw UTF-8
    )),
)


def _answers(store):
    """Everything the results API can ask of a store."""
    out = [store.count(), store.query(), store.latest_per_scenario(),
           store.query(newest_first=True, offset=1, limit=2),
           store.latest_per_scenario(family="f1", status="ok")]
    for name in _SCENARIOS + ("\u00e9", "missing"):
        entry = store.latest_entry(name)
        out += [store.query(scenario=name), store.latest(name),
                store.latest(name, status="ok"),
                entry and (entry.scenario, entry.family, entry.status)]
    return out


class TestStoreFuzz:
    @settings(max_examples=300, deadline=None)
    @given(fragments=st.lists(_FRAGMENT, max_size=12), data=st.data())
    def test_live_store_answers_any_bytes_like_a_fresh_one(self, fragments,
                                                           data):
        blob = b"".join(fragments)
        cut = data.draw(st.integers(0, len(blob)))
        complete = blob[:blob.rfind(b"\n") + 1]
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "results.jsonl")
            with open(path, "wb") as handle:
                handle.write(blob[:cut])
            live = ResultStore(path)
            live.count()                    # index the prefix
            with open(path, "ab") as handle:
                handle.write(blob[cut:])
            assert _answers(live) == _answers(ResultStore(path))
            oracle = os.path.join(tmp, "oracle.jsonl")
            with open(oracle, "wb") as handle:
                handle.write(complete)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                expected = load_jsonl(oracle)
            assert live.query()[0] == expected


#: Pieces of request targets that stress ``urlsplit``: authority and IPv6
#: brackets, scheme, query, fragment, escapes and raw non-ASCII bytes.
_TARGET_FRAGMENT = st.sampled_from(
    [b"/", b"//", b"[", b"]", b"::1", b"http:", b"?", b"#", b"%", b"@",
     b"a", b"=", b"\xc3\xa9", b"\xff", b"\x85"])


async def _parse_request(raw):
    reader = asyncio.StreamReader()
    reader.feed_data(raw)
    reader.feed_eof()
    return await _read_request(reader)


class TestHTTPFuzz:
    @settings(max_examples=500, deadline=None)
    @given(target=st.lists(_TARGET_FRAGMENT, min_size=1, max_size=8))
    def test_any_target_parses_or_is_an_http_error(self, target):
        raw = b"GET " + b"".join(target) + b" HTTP/1.1\r\nHost: t\r\n\r\n"
        try:
            request = asyncio.run(_parse_request(raw))
        except HTTPError as exc:
            assert exc.status == 400
            return
        assert request is not None and request.method == "GET"


# ---------------------------------------------------------------------------
# the HTTP server + API endpoints


class TestServeAPI:
    def test_healthz_and_unknown_and_method_guard(self, tmp_path):
        async def scenario(app, port):
            status, _, body = await _http(port, "GET", "/healthz")
            assert status == 200
            assert json.loads(body)["status"] == "ok"
            status, _, _ = await _http(port, "GET", "/no/such/route")
            assert status == 404
            status, _, _ = await _http(port, "POST", "/healthz")
            assert status == 405
        _with_app(scenario, cache_dir=str(tmp_path))

    def test_scenarios_catalog_with_etag_and_lru(self, tmp_path):
        async def scenario(app, port):
            status, headers, body = await _http(port, "GET", "/scenarios")
            assert status == 200
            payload = json.loads(body)
            names = [s["name"] for s in payload["scenarios"]]
            assert "star-hub-8" in names and "dyn-hub-flash" in names
            assert payload["count"] == len(names)
            etag = headers["etag"]
            # Conditional revalidation: 304, no body.
            status, headers, body = await _http(
                port, "GET", "/scenarios", headers={"If-None-Match": etag})
            assert status == 304 and body == b""
            assert headers["etag"] == etag
            # Unconditional repeat: served from the LRU.
            hits_before = app.cache.hits
            status, _, _ = await _http(port, "GET", "/scenarios")
            assert status == 200
            assert app.cache.hits == hits_before + 1
            # Family filter narrows the catalog and changes the tag.
            status, headers, body = await _http(
                port, "GET", "/scenarios?family=star")
            assert status == 200
            filtered = json.loads(body)
            assert {s["family"] for s in filtered["scenarios"]} == {"star"}
            assert headers["etag"] != etag
        _with_app(scenario, cache_dir=str(tmp_path))

    def test_results_endpoint_filters_and_etag_isolation(self, tmp_path):
        store_file = default_store_path(str(tmp_path))
        append_jsonl(store_file, [
            _record("a", family="f1", hosts=3),
            _record("b", family="f2"),
            _record("a", family="f1", hosts=4),
        ])

        async def scenario(app, port):
            status, headers, body = await _http(
                port, "GET", "/results?scenario=a")
            assert status == 200
            payload = json.loads(body)
            assert payload["total"] == 2
            assert [r["scenario"] for r in payload["records"]] == ["a", "a"]
            etag = headers["etag"]
            # The same tag must NOT validate a different query.
            status, _, body = await _http(
                port, "GET", "/results?scenario=b",
                headers={"If-None-Match": etag})
            assert status == 200
            assert json.loads(body)["total"] == 1
            # ...but does validate the same query.
            status, _, _ = await _http(
                port, "GET", "/results?scenario=a",
                headers={"If-None-Match": etag})
            assert status == 304
            # latest=1 collapses to one record per scenario.
            status, _, body = await _http(port, "GET", "/results?latest=1")
            payload = json.loads(body)
            assert payload["total"] == 2
            latest_a = next(r for r in payload["records"]
                            if r["scenario"] == "a")
            assert latest_a["summary"] == {"hosts": 4}
            # ...and composes with the scenario filter instead of silently
            # ignoring it.
            status, _, body = await _http(
                port, "GET", "/results?latest=1&scenario=a")
            payload = json.loads(body)
            assert payload["total"] == 1
            assert payload["records"][0]["scenario"] == "a"
            assert payload["records"][0]["summary"] == {"hosts": 4}
            # order=desc puts the newest append on page 0 — what a poller
            # needs once matches outgrow one page.
            status, _, body = await _http(
                port, "GET", "/results?scenario=a&order=desc&limit=1")
            payload = json.loads(body)
            assert payload["total"] == 2
            assert payload["records"][0]["summary"] == {"hosts": 4}
            status, _, _ = await _http(port, "GET", "/results?order=sideways")
            assert status == 400
            # Unknown query parameters fail loudly.
            status, _, _ = await _http(port, "GET", "/results?bogus=1")
            assert status == 400
        _with_app(scenario, cache_dir=str(tmp_path))

    def test_results_latest_route_hash_addressed(self, tmp_path):
        store_file = default_store_path(str(tmp_path))
        append_jsonl(store_file, [
            _record("a", scenario_hash="deadbeef", code_version="cafe" * 16),
        ])

        async def scenario(app, port):
            status, headers, body = await _http(
                port, "GET", "/results/a/latest")
            assert status == 200
            record = json.loads(body)
            assert record["scenario"] == "a"
            etag = headers["etag"]
            assert "deadbeef" in etag and ("cafe" * 16)[:12] in etag
            status, _, _ = await _http(port, "GET", "/results/a/latest",
                                       headers={"If-None-Match": etag})
            assert status == 304
            status, _, _ = await _http(port, "GET", "/results/nope/latest")
            assert status == 404
        _with_app(scenario, cache_dir=str(tmp_path))

    def test_keep_alive_and_malformed_requests(self, tmp_path):
        async def scenario(app, port):
            # Two requests over one connection.
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            try:
                status, _, _ = await _roundtrip(reader, writer, "GET",
                                                "/healthz")
                assert status == 200
                status, _, body = await _roundtrip(reader, writer, "GET",
                                                   "/scenarios")
                assert status == 200 and body
            finally:
                writer.close()
                await writer.wait_closed()
            # A garbage request line, or a target urlsplit cannot parse,
            # gets a clean 400.
            for raw in (b"NOT-HTTP\r\n\r\n", b"GET //[::1 HTTP/1.1\r\n\r\n"):
                reader, writer = await asyncio.open_connection("127.0.0.1",
                                                               port)
                try:
                    writer.write(raw)
                    await writer.drain()
                    status_line = await reader.readline()
                    assert b"400" in status_line, raw
                finally:
                    writer.close()
                    await writer.wait_closed()
        _with_app(scenario, cache_dir=str(tmp_path))

    def test_head_carries_get_content_length_without_body(self, tmp_path):
        async def scenario(app, port):
            # /scenarios renders deterministically (and from the LRU), so
            # the HEAD must advertise exactly the GET's entity length.
            _, headers, body = await _http(port, "GET", "/scenarios")
            get_length = int(headers["content-length"])
            assert get_length > 0 and len(body) == get_length
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            try:
                writer.write(b"HEAD /scenarios HTTP/1.1\r\nHost: t\r\n"
                             b"Connection: close\r\n\r\n")
                await writer.drain()
                blob = await reader.read()
            finally:
                writer.close()
                await writer.wait_closed()
            head, _, trailing = blob.partition(b"\r\n\r\n")
            assert b"200" in head.split(b"\r\n")[0]
            # Same entity length as the GET, but no body octets.
            assert f"content-length: {get_length}".encode() \
                in head.lower()
            assert trailing == b""
        _with_app(scenario, cache_dir=str(tmp_path))

    def test_metrics_exposes_perf_and_request_stats(self, tmp_path):
        def responses(payload, code):
            series = payload["metrics"]["repro_http_responses_total"]
            return sum(one["value"] for one in series["series"]
                       if one["labels"]["code"] == code)

        async def scenario(app, port):
            _, _, body = await _http(port, "GET", "/metrics")
            before = json.loads(body)
            await _http(port, "GET", "/scenarios")
            await _http(port, "GET", "/scenarios")
            status, _, body = await _http(port, "GET", "/metrics")
            assert status == 200
            payload = json.loads(body)
            assert set(payload["metrics"]) >= {
                "repro_perf_events_total", "repro_perf_allocations_total",
                "repro_perf_probe_memo_hits_total"}
            # The first /metrics and both /scenarios, counted once each.
            assert responses(payload, "2xx") == responses(before, "2xx") + 3
            assert payload["response_cache"]["hits"] >= 1
            assert "records_parsed" in payload["store"]
            assert payload["jobs"]["pending"] == 0
            # Handler bugs are counted as 500s, not lost to the transport
            # catch-all (where /metrics would show no error signal).
            app.store.query = None      # break a route dependency
            status, _, _ = await _http(port, "GET", "/results")
            assert status == 500
            status, _, body = await _http(port, "GET", "/metrics")
            assert responses(json.loads(body), "5xx") == \
                responses(payload, "5xx") + 1
        _with_app(scenario, cache_dir=str(tmp_path))

    def test_post_runs_validation(self, tmp_path):
        async def scenario(app, port):
            cases = [
                (b"not json", 400),
                (json.dumps(["nope"]).encode(), 422),
                (json.dumps({}).encode(), 422),
                (json.dumps({"scenario": "unknown-name"}).encode(), 404),
                (json.dumps({"scenario": "star-hub-8",
                             "period_s": -3}).encode(), 422),
                # json.loads accepts bare NaN/Infinity; they must not leak
                # into jobs, cache keys, or (as invalid JSON) responses.
                (b'{"scenario": "star-hub-8", "period_s": NaN}', 422),
                (b'{"scenario": "star-hub-8", "period_s": Infinity}', 422),
                (json.dumps({"scenario": "star-hub-8",
                             "baselines": ["bogus"]}).encode(), 422),
                (json.dumps({"scenario": "star-hub-8",
                             "surprise": 1}).encode(), 422),
            ]
            for body, expected in cases:
                status, _, _ = await _http(port, "POST", "/runs", body=body)
                assert status == expected, body
            status, _, _ = await _http(port, "GET", "/runs/job-999")
            assert status == 404
        _with_app(scenario, cache_dir=str(tmp_path))

    def test_post_runs_round_trip_lands_in_store(self, tmp_path):
        cache_dir = str(tmp_path)

        async def scenario(app, port):
            body = json.dumps({"scenario": "star-hub-8"}).encode()
            status, headers, blob = await _http(port, "POST", "/runs",
                                                body=body)
            assert status == 202
            job = json.loads(blob)
            assert job["status"] in ("queued", "running")
            assert headers["location"] == f"/runs/{job['id']}"
            deadline = time.monotonic() + 60
            while True:
                status, _, blob = await _http(port, "GET",
                                              f"/runs/{job['id']}")
                assert status == 200
                state = json.loads(blob)
                if state["status"] not in ("queued", "running"):
                    break
                assert time.monotonic() < deadline
                await asyncio.sleep(0.05)
            assert state["status"] == "ok"
            assert state["record"]["summary"]["hosts"] == 8
            # The pool worker's pipeline work is folded into this process's
            # perf counters, so /metrics reflects it (a static pipeline run
            # solves max-min allocations and exercises the route cache; its
            # analytic probes dispatch no simulation events).
            status, _, blob = await _http(port, "GET", "/metrics")
            metrics = json.loads(blob)["metrics"]
            for name in ("repro_perf_allocations_total",
                         "repro_perf_route_cache_misses_total"):
                assert metrics[name]["series"][0]["value"] > 0
            # The run is queryable through the results API immediately.
            status, _, blob = await _http(
                port, "GET", "/results?scenario=star-hub-8")
            assert json.loads(blob)["total"] == 1
            status, _, _ = await _http(port, "GET",
                                       "/results/star-hub-8/latest")
            assert status == 200
        _with_app(scenario, cache_dir=cache_dir)
        # Acceptance: a later CLI-style sweep of the same scenario is served
        # from the cache the HTTP run populated.
        result = run_sweep(names=["star-hub-8"], cache_dir=cache_dir)
        assert result.cache_hits == 1
        stored = load_jsonl(default_store_path(cache_dir))
        assert [r.scenario for r in stored] == ["star-hub-8", "star-hub-8"]
        assert stored[1].cached

    def test_results_write_no_index_file(self, tmp_path):
        store_file = default_store_path(str(tmp_path))
        append_jsonl(store_file, [_record("a"), _record("b")])
        response, = _handle(str(tmp_path), ("/results", {}))
        assert response.status == 200
        assert json.loads(response.body)["total"] == 2
        assert not os.path.exists(index_path(store_file))
        assert os.listdir(str(tmp_path)) == ["results.jsonl"]

    def test_store_bytes_gauge_tracks_in_process_appends(self, tmp_path):
        # Regression: the gauge was bound to a property's value, so every
        # scrape exported NaN.
        store_file = default_store_path(str(tmp_path))
        app = ReproApp(cache_dir=str(tmp_path))
        try:
            assert REGISTRY.value("repro_store_bytes") == 0
            append_jsonl(store_file, [_record("a")])
            assert REGISTRY.value("repro_store_bytes") == \
                os.path.getsize(store_file)
        finally:
            asyncio.run(app.close())

    def test_queue_full_yields_503(self, tmp_path):
        async def scenario(app, port):
            # The queue is not started, so jobs stay pending.
            body = json.dumps({"scenario": "star-hub-8"}).encode()
            status, _, _ = await _http(port, "POST", "/runs", body=body)
            assert status == 202
            status, _, blob = await _http(port, "POST", "/runs", body=body)
            assert status == 503
            assert "full" in json.loads(blob)["error"]

        async def runner():
            app = ReproApp(cache_dir=str(tmp_path), queue_size=1)
            from repro.serve.http import serve_http
            server = await serve_http(app.handle)
            port = server.sockets[0].getsockname()[1]
            try:
                await scenario(app, port)
            finally:
                server.close()
                await server.wait_closed()
                app.store.close()
        asyncio.run(runner())


# ---------------------------------------------------------------------------
# the job queue


class TestJobQueue:
    def test_cached_job_completes_without_touching_pool(self, tmp_path):
        cache_dir = str(tmp_path)
        run_sweep(names=["star-hub-8"], cache_dir=cache_dir)

        async def scenario():
            queue = JobQueue(cache_dir=cache_dir, pool_processes=1)
            queue.start()
            try:
                job = queue.submit("star-hub-8")
                await _wait_done(queue, job)
                assert job.status == "ok" and job.cached
                assert job.record.cached
            finally:
                await queue.close()
        asyncio.run(scenario())
        stored = load_jsonl(default_store_path(cache_dir))
        assert stored[-1].scenario == "star-hub-8"

    def test_queued_job_cancellation(self, tmp_path):
        async def scenario():
            queue = JobQueue(cache_dir=str(tmp_path))
            # Not started: the job can only sit in the queue.
            job = queue.submit("star-hub-8")
            cancelled = queue.cancel(job.id)
            assert cancelled.status == "cancelled" and cancelled.done
            with pytest.raises(KeyError):
                queue.cancel("job-404")
        asyncio.run(scenario())

    def test_queue_capacity_counts_pending_only(self, tmp_path):
        async def scenario():
            queue = JobQueue(cache_dir=str(tmp_path), maxsize=2)
            first = queue.submit("star-hub-8")
            queue.submit("ring-4")
            with pytest.raises(QueueFull):
                queue.submit("star-switch-12")
            queue.cancel(first.id)
            queue.submit("star-switch-12")      # capacity freed
        asyncio.run(scenario())

    def test_job_timeout_kills_worker_and_respawns_pool(self, tmp_path):
        register_scenario("test-serve-slow", family="test-internal",
                          seconds=2.5)(_slow_builder)
        try:
            async def scenario():
                queue = JobQueue(cache_dir=str(tmp_path), pool_processes=1,
                                 timeout_s=0.3)
                queue.start()
                try:
                    job = queue.submit("test-serve-slow")
                    await _wait_done(queue, job, timeout=10.0)
                    assert job.status == "timeout"
                    assert "worker was killed" in job.error
                finally:
                    await queue.close()
            asyncio.run(scenario())
            # Nothing was persisted for the timed-out run.
            assert not os.path.exists(default_store_path(str(tmp_path)))
        finally:
            unregister("test-serve-slow")

    def test_error_record_yields_error_status(self, tmp_path):
        register_scenario("test-serve-broken",
                          family="test-internal")(_broken_builder)
        try:
            async def scenario():
                queue = JobQueue(cache_dir=str(tmp_path), pool_processes=1)
                queue.start()
                try:
                    job = queue.submit("test-serve-broken")
                    await _wait_done(queue, job)
                    assert job.status == "error"
                    assert "deliberately" in job.error
                finally:
                    await queue.close()
            asyncio.run(scenario())
            # Error records reach the store but never the cache.
            stored = load_jsonl(default_store_path(str(tmp_path)))
            assert [r.status for r in stored] == ["error"]
            assert not os.path.exists(
                cache_path(str(tmp_path), "test-serve-broken"))
        finally:
            unregister("test-serve-broken")


def _slow_builder(seconds):
    time.sleep(seconds)
    raise RuntimeError("should have been abandoned before completing")


def _broken_builder():
    raise RuntimeError("deliberately broken scenario")


# ---------------------------------------------------------------------------
# catalog serialization (shared by GET /scenarios and the CLI)


class TestCatalog:
    def test_scenario_record_shape(self):
        static = scenario_record(list_scenarios("star-hub-8")[0])
        assert static["name"] == "star-hub-8"
        assert static["dynamic"] is False
        assert static["params"] == {"hosts": 8, "kind": "hub"}
        assert len(static["content_hash"]) == 64
        dynamic = scenario_record(list_scenarios("dyn-hub-flash")[0])
        assert dynamic["dynamic"] is True
        assert dynamic["base"] == "star-hub-8"

    def test_catalog_etag_rolls_with_registry(self):
        scenarios = list_scenarios()
        before = catalog_etag(scenarios)
        assert before == catalog_etag(list_scenarios())
        register_scenario("test-serve-etag", family="test-internal",
                          hosts=2)(_broken_builder)
        try:
            assert catalog_etag(list_scenarios()) != before
        finally:
            unregister("test-serve-etag")

    def test_cli_scenarios_json_matches_api_schema(self, capsys):
        assert main(["scenarios", "--format", "json",
                     "--filter", "star-hub-8"]) == 0
        payload = json.loads(capsys.readouterr().out)
        expected = catalog_payload(list_scenarios("star-hub-8"))
        assert payload == json.loads(json.dumps(expected))

    def test_cli_dynamics_list_json(self, capsys):
        assert main(["dynamics", "list", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] >= 8
        assert all(s["dynamic"] for s in payload["scenarios"])

    def test_cli_json_empty_match_stays_valid_json(self, capsys):
        # Parity with GET /scenarios: no matches is a count-0 document on
        # stdout (the exit status still signals it), never a prose line.
        assert main(["scenarios", "--format", "json",
                     "--filter", "match-nothing"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == 0 and payload["scenarios"] == []
        assert main(["dynamics", "list", "--format", "json",
                     "--filter", "match-nothing"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == 0


# ---------------------------------------------------------------------------
# observability: tracing header / endpoint, Prometheus metrics, access log


class TestObservability:
    @pytest.fixture(autouse=True)
    def _tracer_isolation(self):
        TRACER.reset()
        yield
        TRACER.reset()

    def test_head_metrics_carries_length_without_body(self, tmp_path):
        async def scenario(app, port):
            status, headers, body = await _http(port, "GET", "/metrics")
            assert status == 200 and len(body) > 0
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            try:
                writer.write(b"HEAD /metrics HTTP/1.1\r\nHost: t\r\n"
                             b"Connection: close\r\n\r\n")
                await writer.drain()
                blob = await reader.read()
            finally:
                writer.close()
                await writer.wait_closed()
            head, _, trailing = blob.partition(b"\r\n\r\n")
            assert b"200" in head.split(b"\r\n")[0]
            # The entity length is advertised but no body octets follow
            # (/metrics renders per request, so only self-consistency —
            # not equality with the earlier GET — is guaranteed).
            lengths = [int(line.split(b":")[1]) for line in head.lower()
                       .split(b"\r\n") if line.startswith(b"content-length")]
            assert lengths and lengths[0] > 0
            assert trailing == b""
            status, _, _ = await _http(port, "DELETE", "/metrics")
            assert status == 405
        _with_app(scenario, cache_dir=str(tmp_path))

    def test_metrics_prometheus_exposition(self, tmp_path):
        async def scenario(app, port):
            await _http(port, "GET", "/scenarios")
            status, headers, body = await _http(
                port, "GET", "/metrics?format=prometheus")
            assert status == 200
            assert headers["content-type"].startswith(
                "text/plain; version=0.0.4")
            text = body.decode("utf-8")
            # Every non-comment line is one `name{labels} value` sample.
            for line in text.strip().splitlines():
                if line.startswith("#"):
                    continue
                name_part, _, value = line.rpartition(" ")
                assert name_part and (value == "NaN" or float(value) ==
                                      float(value) or True)
            assert "# TYPE repro_http_request_seconds histogram" in text
            assert 'repro_http_request_seconds_bucket{route="/scenarios",' \
                in text
            assert 'le="+Inf"' in text
            assert "repro_jobs_pending 0" in text
            assert "repro_store_records 0" in text
            assert "# TYPE repro_perf_events_total counter" in text
            # Content negotiation: a text/plain Accept header also selects
            # the exposition format; the JSON document stays the default.
            _, _, blob = await _http(port, "GET", "/metrics",
                                     headers={"Accept": "text/plain"})
            assert blob.decode("utf-8").startswith("#")
            status, _, blob = await _http(port, "GET", "/metrics")
            payload = json.loads(blob)
            assert "repro_http_request_seconds" in payload["metrics"]
            assert payload["tracing"]["sample_rate"] == 0.0
            status, _, _ = await _http(port, "GET", "/metrics?format=xml")
            assert status == 400
        _with_app(scenario, cache_dir=str(tmp_path))

    def test_untraced_requests_carry_no_trace_header(self, tmp_path):
        async def scenario(app, port):
            status, headers, _ = await _http(port, "GET", "/healthz")
            assert status == 200
            assert "x-repro-trace-id" not in headers
            status, _, _ = await _http(port, "GET", "/trace/nothing-here")
            assert status == 404
            status, _, _ = await _http(port, "POST", "/trace/x", body=b"{}")
            assert status == 405
        _with_app(scenario, cache_dir=str(tmp_path))

    def test_access_log_line_per_request(self, tmp_path):
        records = []

        class Collect(logging.Handler):
            def emit(self, record):
                records.append(record.getMessage())

        logger = logging.getLogger("repro.serve.access")
        handler = Collect()
        logger.addHandler(handler)
        logger.setLevel(logging.INFO)
        try:
            async def scenario(app, port):
                await _http(port, "GET", "/healthz")
            _with_app(scenario, cache_dir=str(tmp_path))
        finally:
            logger.removeHandler(handler)
            logger.setLevel(logging.NOTSET)
        access = [m for m in records if "event=access" in m]
        assert len(access) == 1
        assert "method=GET" in access[0]
        assert "path=/healthz" in access[0]
        assert "status=200" in access[0]
        assert "trace=none" in access[0]     # untraced by default

    def test_traced_run_yields_full_timeline(self, tmp_path):
        """Acceptance: POST /runs with X-Repro-Trace-Id on a cold cache
        executes on the warm pool and GET /trace/{id} shows the serve,
        queue-wait, worker and pipeline-stage spans with durations and
        perf-counter deltas."""
        trace_id = "obs-acceptance-trace"

        async def scenario(app, port):
            body = json.dumps({"scenario": "ring-4"}).encode()
            status, headers, blob = await _http(
                port, "POST", "/runs", body=body,
                headers={"X-Repro-Trace-Id": trace_id})
            assert status == 202
            # The forced trace id is echoed back on the sampled response.
            assert headers["x-repro-trace-id"] == trace_id
            job = json.loads(blob)
            assert job["trace_id"] == trace_id
            deadline = time.monotonic() + 120
            while True:
                status, _, blob = await _http(port, "GET",
                                              f"/runs/{job['id']}")
                state = json.loads(blob)
                if state["status"] not in ("queued", "running"):
                    break
                assert time.monotonic() < deadline
                await asyncio.sleep(0.05)
            assert state["status"] == "ok"
            assert state["cached"] is False          # really ran on the pool
            status, _, blob = await _http(port, "GET", f"/trace/{trace_id}")
            assert status == 200
            payload = json.loads(blob)
            assert payload["trace_id"] == trace_id
            spans = payload["spans"]
            assert payload["count"] == len(spans) >= 7
            assert all(s["trace_id"] == trace_id for s in spans)
            by_name = {s["name"]: s for s in spans}
            root = by_name["serve.request"]
            assert root["attrs"]["path"] == "/runs"
            assert root["attrs"]["status"] == 202
            # The job-side intervals parent under the submitting request.
            for name in ("serve.queue_wait", "serve.job",
                         "sweep.run_scenario"):
                assert by_name[name]["parent_id"] == root["span_id"], name
            job_span = by_name["serve.job"]
            assert job_span["attrs"]["status"] == "ok"
            assert job_span["attrs"]["cached"] is False
            assert job_span["duration_s"] > 0
            # The pool worker adopted the shipped context: its span carries
            # the propagated fast_path flag and the perf-counter deltas of
            # the pipeline work it enclosed.
            worker = by_name["sweep.run_scenario"]
            assert worker["attrs"]["fast_path"] is True
            assert worker["attrs"]["perf"]["allocations"] > 0
            assert worker["duration_s"] > 0
            for stage in ("pipeline.simulate", "pipeline.map",
                          "pipeline.plan", "pipeline.evaluate"):
                span = by_name[stage]
                assert span["duration_s"] > 0, stage
                assert span["parent_id"] == worker["span_id"]
            # The mapper phases nested one level further down.
            assert by_name["env.lookup"]["parent_id"] == \
                by_name["pipeline.map"]["span_id"]
            # Polling requests went untraced: nothing but this trace is
            # buffered, and the trace endpoint 404s for unknown ids.
            assert {s["trace_id"] for s in TRACER.spans()} == {trace_id}
        _with_app(scenario, cache_dir=str(tmp_path))

    def test_traced_job_writes_each_span_once(self, tmp_path):
        """Regression: a served job's worker spans reach the span log once,
        through this process' ingest, never also from the worker."""
        log = str(tmp_path / "spans.jsonl")
        TRACER.configure(sample_rate=1.0, log_path=log)
        respawn_pool("test-fresh-workers")     # fork with the log path set

        async def scenario(app, port):
            body = json.dumps({"scenario": "ring-4", "rerun": True}).encode()
            status, _, blob = await _http(port, "POST", "/runs", body=body)
            assert status == 202
            job = app.jobs.get(json.loads(blob)["id"])
            await _wait_done(app.jobs, job, timeout=120)
            assert job.status == "ok" and not job.cached
        _with_app(scenario, cache_dir=str(tmp_path / "cache"),
                  pool_processes=1)
        spans = load_span_log(log)
        assert "pipeline.map" in {span["name"] for span in spans}
        ids = [span["span_id"] for span in spans]
        assert len(ids) == len(set(ids))


# ---------------------------------------------------------------------------
# obs v2: /profile, /analyze/*, /slo


class TestObsAnalytics:
    @pytest.fixture(autouse=True)
    def _obs_isolation(self):
        from repro.obs.metrics import REGISTRY
        from repro.obs.profile import PROFILER

        TRACER.reset()
        PROFILER.reset()
        # zero(), not reset(): the app's module-level counter/histogram
        # handles must stay live; only accumulated values from earlier
        # serve tests have to go (they would read as SLO breaches here).
        REGISTRY.zero()
        yield
        TRACER.reset()
        PROFILER.reset()
        REGISTRY.zero()

    def test_profiled_run_ships_worker_stacks_home(self, tmp_path):
        """Acceptance: POST /runs with X-Repro-Profile executes on the pool
        with the worker's sampler armed, and GET /profile then serves
        non-empty collapsed stacks containing a pipeline/mapper frame."""
        async def scenario(app, port):
            status, _, blob = await _http(port, "GET", "/profile")
            assert status == 200 and blob == b""     # nothing sampled yet
            body = json.dumps({"scenario": "wan-grid-3x2"}).encode()
            status, _, blob = await _http(
                port, "POST", "/runs", body=body,
                headers={"X-Repro-Profile": "1000"})
            assert status == 202
            job = json.loads(blob)
            assert job["profile_hz"] == 1000
            deadline = time.monotonic() + 120
            while True:
                status, _, blob = await _http(port, "GET",
                                              f"/runs/{job['id']}")
                state = json.loads(blob)
                if state["status"] not in ("queued", "running"):
                    break
                assert time.monotonic() < deadline
                await asyncio.sleep(0.05)
            assert state["status"] == "ok"
            assert state["cached"] is False          # profiled jobs never
            assert state["profile_samples"] > 0      # hit the cache
            status, headers, blob = await _http(port, "GET", "/profile")
            assert status == 200
            assert headers["content-type"].startswith("text/plain")
            text = blob.decode("utf-8")
            assert text, "no collapsed stacks after a profiled run"
            for line in text.strip().splitlines():
                stack, _, count = line.rpartition(" ")
                assert stack and int(count) > 0
            assert "repro.pipeline" in text or "repro.env" in text
            # JSON view agrees with the shipped sample count.
            status, _, blob = await _http(port, "GET",
                                          "/profile?format=json")
            payload = json.loads(blob)
            assert payload["samples"] >= state["profile_samples"]
            assert payload["armed"] is False         # disarmed between jobs
        _with_app(scenario, cache_dir=str(tmp_path))

    def test_profile_etag_revalidates_until_new_samples(self, tmp_path):
        from repro.obs.profile import PROFILER

        async def scenario(app, port):
            status, headers, _ = await _http(port, "GET", "/profile")
            etag = headers["etag"]
            status, _, blob = await _http(
                port, "GET", "/profile",
                headers={"If-None-Match": etag})
            assert status == 304 and blob == b""
            # The two formats never share a validator.
            status, headers_json, _ = await _http(
                port, "GET", "/profile?format=json",
                headers={"If-None-Match": etag})
            assert status == 200
            assert headers_json["etag"] != etag
            # New samples (an ingested worker profile) invalidate the tag.
            PROFILER.ingest({"stacks": {"a;b": 3}, "samples": 3})
            status, headers, _ = await _http(
                port, "GET", "/profile",
                headers={"If-None-Match": etag})
            assert status == 200
            assert headers["etag"] != etag
            status, _, _ = await _http(port, "GET", "/profile?format=xml")
            assert status == 400
        _with_app(scenario, cache_dir=str(tmp_path))

    def test_analyze_ops_aggregates_buffered_spans(self, tmp_path):
        async def scenario(app, port):
            await _http(port, "GET", "/healthz",
                        headers={"X-Repro-Trace-Id": "t-ops"})
            status, headers, blob = await _http(port, "GET", "/analyze/ops")
            assert status == 200
            payload = json.loads(blob)
            assert payload["spans"] >= 1
            ops = {row["op"]: row for row in payload["ops"]}
            row = ops["serve.request"]
            assert row["count"] >= 1
            assert set(row) >= {"p50_s", "p95_s", "p99_s", "self_s",
                                "total_s", "errors"}
            # Substring filtering narrows the table.
            status, _, blob = await _http(port, "GET",
                                          "/analyze/ops?op=nothing-here")
            assert json.loads(blob)["ops"] == []
            # The tag revalidates until another span is recorded.
            etag = headers["etag"]
            status, _, _ = await _http(port, "GET", "/analyze/ops",
                                       headers={"If-None-Match": etag})
            assert status == 304
            await _http(port, "GET", "/healthz",
                        headers={"X-Repro-Trace-Id": "t-ops-2"})
            status, _, _ = await _http(port, "GET", "/analyze/ops",
                                       headers={"If-None-Match": etag})
            assert status == 200
        _with_app(scenario, cache_dir=str(tmp_path))

    def test_critical_path_of_a_buffered_trace(self, tmp_path):
        async def scenario(app, port):
            await _http(port, "GET", "/scenarios",
                        headers={"X-Repro-Trace-Id": "t-path"})
            status, _, blob = await _http(port, "GET",
                                          "/analyze/critical-path/t-path")
            assert status == 200
            payload = json.loads(blob)
            assert payload["trace_id"] == "t-path"
            assert payload["span_count"] >= 1
            steps = payload["steps"]
            assert steps[0]["name"] == "serve.request"
            assert steps[0]["depth"] == 0
            assert payload["total_s"] == steps[0]["duration_s"]
            assert sum(s["self_s"] for s in steps) == pytest.approx(
                steps[0]["duration_s"])
            status, _, _ = await _http(port, "GET",
                                       "/analyze/critical-path/absent")
            assert status == 404
        _with_app(scenario, cache_dir=str(tmp_path))

    def test_rerun_job_feeds_the_pipeline_map_slo(self, tmp_path):
        """Regression: the worker's stage histogram rides the task result
        home, so /slo grades pipeline-map after a served run."""
        async def scenario(app, port):
            body = json.dumps({"scenario": "ring-4", "rerun": True}).encode()
            status, _, blob = await _http(port, "POST", "/runs", body=body)
            assert status == 202
            job = app.jobs.get(json.loads(blob)["id"])
            await _wait_done(app.jobs, job, timeout=120)
            assert job.status == "ok" and not job.cached
            status, _, blob = await _http(port, "GET", "/slo")
            assert status == 200
            by_name = {v["name"]: v for v in json.loads(blob)["slos"]}
            assert by_name["pipeline-map"]["total"] >= 1
            assert by_name["pipeline-map"]["status"] != "no_data"
        _with_app(scenario, cache_dir=str(tmp_path), pool_processes=1)

    def test_slo_verdicts_from_live_traffic(self, tmp_path):
        async def scenario(app, port):
            for _ in range(5):
                await _http(port, "GET", "/healthz")
            status, _, blob = await _http(port, "GET", "/slo")
            assert status == 200
            payload = json.loads(blob)
            assert payload["evaluations"] >= 1
            by_name = {v["name"]: v for v in payload["slos"]}
            latency = by_name["http-latency"]
            # Local /healthz round-trips sit far under 500 ms.
            assert latency["status"] == "ok"
            assert latency["compliance"] == pytest.approx(1.0)
            assert latency["window"]["total"] >= 5
            availability = by_name["http-availability"]
            assert availability["status"] == "ok"
            # A 404 is not a 5xx: availability holds, the counter grows.
            await _http(port, "GET", "/runs/absent")
            status, _, blob = await _http(port, "GET", "/slo")
            by_name = {v["name"]: v
                       for v in json.loads(blob)["slos"]}
            assert by_name["http-availability"]["status"] == "ok"
            assert by_name["http-availability"]["total"] > \
                availability["total"]
            status, _, _ = await _http(port, "DELETE", "/slo")
            assert status == 405
        _with_app(scenario, cache_dir=str(tmp_path))
