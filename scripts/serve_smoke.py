#!/usr/bin/env python
"""Smoke-test ``repro serve`` end to end (the `make smoke-serve` gate).

Starts the server as a real subprocess on an ephemeral port, then exercises
the core loop a deployment depends on:

1. ``GET /healthz`` answers ``ok``;
2. ``GET /scenarios`` lists the catalog with an ``ETag`` that revalidates
   (``304``);
3. ``POST /runs`` for a smoke scenario completes and the run is visible in
   ``GET /results/.../latest``;
4. ``GET /metrics`` reports the served requests, and the Prometheus text
   exposition (``?format=prometheus``) parses sample by sample;
5. the run's trace (``repro serve`` samples every request by default) is
   retrievable via ``GET /trace/{id}`` with the serve-side and pool-worker
   spans present;
6. ``GET /slo`` grades the ``pipeline-map`` objective from the worker's
   stage timings, and the ``--trace-log`` span log (in a temp dir) holds
   every span id exactly once.

The run is submitted with ``"rerun": true``, so it always executes on the
pool.  The shared ``.sweep-cache`` (override with ``SMOKE_CACHE_DIR``)
still serves the catalog and receives the result.
"""

import json
import os
import re
import subprocess
import sys
import tempfile
import threading
import time
import urllib.error
import urllib.request

SCENARIO = os.environ.get("SMOKE_SCENARIO", "star-hub-8")
CACHE_DIR = os.environ.get("SMOKE_CACHE_DIR", ".sweep-cache")
STARTUP_TIMEOUT_S = 30.0
JOB_TIMEOUT_S = 300.0


def fail(message):
    print(f"serve smoke FAILED: {message}", file=sys.stderr)
    sys.exit(1)


def request(base, path, data=None, headers=None):
    req = urllib.request.Request(base + path, data=data,
                                 headers=headers or {})
    try:
        with urllib.request.urlopen(req, timeout=30) as resp:
            return resp.status, dict(resp.headers), resp.read()
    except urllib.error.HTTPError as exc:
        return exc.code, dict(exc.headers), exc.read()


def _drain(stream, sink):
    """Keep reading a child pipe so the server can never block on a full
    pipe buffer (pool workers inherit these fds and may be chatty)."""
    for line in stream:
        sink.append(line)


def main():
    with tempfile.TemporaryDirectory() as tmp:
        smoke(os.path.join(tmp, "spans.jsonl"))


def smoke(span_log):
    server = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
         "--jobs", "2", "--cache-dir", CACHE_DIR, "--trace-log", span_log],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    stderr_lines = []
    threading.Thread(target=_drain, args=(server.stderr, stderr_lines),
                     daemon=True).start()
    try:
        # The CLI announces "serving on http://host:port" once bound.  Read
        # it through a helper thread so a server that hangs *before*
        # announcing fails the smoke after STARTUP_TIMEOUT_S instead of
        # blocking `make verify` until some outer timeout kills it blind.
        announce = []
        reader = threading.Thread(
            target=lambda: announce.append(server.stdout.readline()),
            daemon=True)
        reader.start()
        reader.join(STARTUP_TIMEOUT_S)
        if reader.is_alive():
            fail(f"server did not announce within {STARTUP_TIMEOUT_S:g}s")
        line = announce[0] if announce else ""
        if not line:
            server.wait(timeout=5)
            fail(f"server exited at startup: {''.join(stderr_lines)[-2000:]}")
        match = re.search(r"http://([^:]+):(\d+)", line)
        if not match:
            fail(f"could not parse announce line: {line!r}")
        # From here on, drain stdout too — nothing else is parsed from it.
        threading.Thread(target=_drain, args=(server.stdout, []),
                         daemon=True).start()
        base = f"http://{match.group(1)}:{match.group(2)}"
        print(f"smoke: server up at {base}")

        status, _, body = request(base, "/healthz")
        if status != 200 or json.loads(body)["status"] != "ok":
            fail(f"/healthz: {status} {body[:200]}")

        status, headers, body = request(base, "/scenarios")
        catalog = json.loads(body)
        if status != 200 or catalog["count"] < 10:
            fail(f"/scenarios: {status}, count={catalog.get('count')}")
        if SCENARIO not in [s["name"] for s in catalog["scenarios"]]:
            fail(f"scenario {SCENARIO} missing from the catalog")
        etag = headers.get("ETag")
        status, _, _ = request(base, "/scenarios",
                               headers={"If-None-Match": etag})
        if status != 304:
            fail(f"ETag revalidation returned {status}, wanted 304")
        print(f"smoke: catalog ok ({catalog['count']} scenarios, "
              f"ETag revalidates)")

        payload = json.dumps({"scenario": SCENARIO, "rerun": True}).encode()
        status, _, body = request(base, "/runs", data=payload)
        if status != 202:
            fail(f"POST /runs: {status} {body[:200]}")
        job = json.loads(body)
        deadline = time.monotonic() + JOB_TIMEOUT_S
        while True:
            status, _, body = request(base, f"/runs/{job['id']}")
            state = json.loads(body)
            if state["status"] not in ("queued", "running"):
                break
            if time.monotonic() > deadline:
                fail(f"job {job['id']} did not finish in {JOB_TIMEOUT_S}s")
            time.sleep(0.2)
        if state["status"] != "ok" or state["cached"]:
            fail(f"job finished {state['status']} "
                 f"(cached={state['cached']}): "
                 f"{(state.get('error') or '')[:500]}")
        print("smoke: run completed on the pool")

        status, _, body = request(base, f"/results/{SCENARIO}/latest")
        if status != 200 or json.loads(body)["scenario"] != SCENARIO:
            fail(f"/results/{SCENARIO}/latest: {status} {body[:200]}")

        status, _, body = request(base, "/metrics")
        metrics = json.loads(body)
        if status != 200 or metrics["requests"]["total"] < 5:
            fail(f"/metrics: {status} {body[:300]}")

        status, headers, body = request(base, "/metrics?format=prometheus")
        if status != 200 or not headers.get("Content-Type",
                                            "").startswith("text/plain"):
            fail(f"/metrics?format=prometheus: {status} "
                 f"{headers.get('Content-Type')}")
        samples = 0
        for line in body.decode("utf-8").strip().splitlines():
            if line.startswith("#"):
                continue
            name, _, value = line.rpartition(" ")
            try:
                float(value)
            except ValueError:
                fail(f"unparseable exposition sample: {line!r}")
            if not name:
                fail(f"unparseable exposition sample: {line!r}")
            samples += 1
        for family in ("repro_http_request_seconds_bucket",
                       "repro_jobs_pending", "repro_perf_events_total"):
            if family not in body.decode("utf-8"):
                fail(f"metric family {family} missing from the exposition")
        print(f"smoke: prometheus exposition parses ({samples} samples)")

        # The server traces every request by default, so the submitted
        # run's trace — serve spans plus, on a cache miss, the pool
        # worker's pipeline stages — is queryable by the job's trace id.
        trace_id = state.get("trace_id")
        if not trace_id:
            fail(f"job {job['id']} carries no trace id: {state}")
        status, _, body = request(base, f"/trace/{trace_id}")
        if status != 200:
            fail(f"/trace/{trace_id}: {status} {body[:300]}")
        trace = json.loads(body)
        names = {span["name"] for span in trace["spans"]}
        wanted = {"serve.request", "serve.queue_wait", "serve.job",
                  "sweep.run_scenario", "pipeline.map", "pipeline.plan"}
        if not wanted <= names:
            fail(f"trace {trace_id} is missing spans {wanted - names} "
                 f"(got {sorted(names)})")
        print(f"smoke: trace {trace_id} retrievable "
              f"({trace['count']} spans)")

        # The worker's stage histogram came home with its task result.
        status, _, body = request(base, "/slo")
        verdicts = {v["name"]: v for v in json.loads(body)["slos"]}
        pipeline_map = verdicts.get("pipeline-map", {})
        if status != 200 or pipeline_map.get("status") in (None, "no_data"):
            fail(f"/slo grades pipeline-map without data: {pipeline_map}")

        # Worker spans reach the span log once, through the server.
        with open(span_log, "r", encoding="utf-8") as handle:
            spans = [json.loads(line) for line in handle if line.strip()]
        if trace_id not in {span["trace_id"] for span in spans}:
            fail(f"span log {span_log} lacks trace {trace_id}")
        ids = [span["span_id"] for span in spans]
        if len(ids) != len(set(ids)):
            fail(f"span log repeats span ids: {len(ids)} lines for "
                 f"{len(set(ids))} ids")
        print(f"smoke: /slo grades pipeline-map, span log holds {len(ids)} "
              f"unique span ids — serve smoke PASSED")
    finally:
        server.terminate()
        try:
            server.wait(timeout=10)
        except subprocess.TimeoutExpired:
            server.kill()
            server.wait()


if __name__ == "__main__":
    main()
