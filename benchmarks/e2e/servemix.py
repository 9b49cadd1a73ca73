"""Workload ``serve-mixed``: an open loop of mixed requests on ``repro serve``.

``repro serve --port 0 --jobs 1`` runs as a child process on a scratch
cache whose result store is preloaded with a seeded 6000-record,
60-scenario history (catalog scenario names included).  One asyncio process
sends 100 requests/s for the measured phase over two keep-alive
connections, on a fixed schedule whatever the server's pace:

* 55 % ``GET /results?scenario=`` (newest page of 20), 25 % ``GET
  /results/{s}/latest``;
* 15 % ``GET /scenarios``, half of them revalidating with ``If-None-Match``;
* 5 % ``GET /runs/{id}`` of the newest job;
* plus one ``POST /runs`` of a smoke scenario (``rerun``) every 2 s, whose
  pipeline runs on the pool and whose record goes through the store append,
  the index tail scan and the response-cache invalidation.

The serve, store and HTTP path dominates; the pipeline is small.  Each
request is timed from the moment it was due, so a stall also charges the
requests queued behind it, and the generator's own lateness is reported.
"""

from __future__ import annotations

import asyncio
import hashlib
import http.client
import json
import os
import pickle
import random
import re
import signal
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple
from urllib.parse import quote

import repro.dynamics  # noqa: F401  (registers the dynamic catalog)
from repro.obs.trace import TRACER
from repro.perf import counters_snapshot
from repro.scenarios import get_scenario, list_scenarios
from repro.serve import ReproApp, Request, index_path
from repro.simkernel import derive_seed
from repro.sweep import (
    DEFAULT_BASELINES,
    SweepRecord,
    append_jsonl,
    default_store_path,
    respawn_pool,
)
from repro.sweep.runner import TaskContext

import harness

RATE_PER_S = 100.0
POST_EVERY_S = 2.0
CONNECTIONS = 2
RECORDS = 6000
SCENARIOS = 60
SMOKE = dict(rate=40.0, post_every=0.5, records=600, scenarios=12)
POST_SCENARIO = "star-hub-8"
#: Records per ``/results`` page, newest first.  The default page of 100
#: full records saturates the server below 100 requests/s on two CPUs, and
#: a saturated open loop measures only its own backlog.
PAGE = 20
MIX = (("results", 0.55), ("latest", 0.25), ("scenarios", 0.15),
       ("run", 0.05))
SETUP_REPS = 3
STARTUP_TIMEOUT_S = 60.0
JOB_TIMEOUT_S = 60.0
_ANNOUNCE = re.compile(r"serving on http://[^:\s]+:(\d+)")


@dataclass(frozen=True)
class Item:
    """One scheduled request: when it is due and what it asks for."""

    at: float
    kind: str
    scenario: Optional[str] = None
    conditional: bool = False


class MixState:
    """What the client knows while the mix runs."""

    def __init__(self, counts: Dict[str, int]) -> None:
        #: Records per scenario in the store before the measured phase.
        self.counts = dict(counts)
        self.etag: Optional[str] = None
        self.jobs: List[str] = []
        #: ``POST /runs`` sent during the measured phase.
        self.posted = 0


def _sizes(smoke: bool) -> Dict[str, float]:
    return SMOKE if smoke else dict(rate=RATE_PER_S, post_every=POST_EVERY_S,
                                    records=RECORDS, scenarios=SCENARIOS)


# -- inputs -------------------------------------------------------------------

def _fake_summary(rng: random.Random, name: str) -> Dict[str, object]:
    hosts = rng.randint(8, 96)

    def row(planner: str) -> Dict[str, object]:
        cliques = rng.randint(1, 12)
        return {"planner": planner, "hosts": hosts, "cliques": cliques,
                "largest": rng.randint(2, hosts), "collisions":
                rng.randint(0, 400), "harmful": rng.randint(0, 40),
                "period_mean_s": round(rng.uniform(2, 90), 1),
                "period_worst_s": round(rng.uniform(2, 900), 1),
                "completeness": 1.0, "bw_err": round(rng.random() * .3, 3),
                "lat_err": round(rng.random() * .3, 3),
                "measured_pairs": rng.randint(hosts, hosts * 4),
                "intrusiveness": round(rng.random() * .5, 3)}

    return {"platform": name, "master": "h0", "hosts": hosts,
            "networks": rng.randint(1, 20),
            "measurements": rng.randint(50, 5000),
            "traceroutes": rng.randint(8, 96),
            "bytes_injected": rng.randint(10 ** 5, 10 ** 8),
            "cliques": rng.randint(1, 12), "largest_clique": rng.randint(2, 9),
            "collisions": rng.randint(0, 300),
            "harmful_collisions": rng.randint(0, 30), "completeness": 1.0,
            "bandwidth_error": rng.random() * 0.3,
            "latency_error": rng.random() * 0.3,
            "intrusiveness": rng.random() * 0.5,
            "worst_period_s": rng.uniform(2, 900), "forecast_window": 10,
            "forecast_alpha": 0.3,
            "baselines": [row(p) for p in ("env", "global-clique", "subnet")],
            "timings": {"map": rng.random(), "plan": rng.random() * .01,
                        "quality": rng.random() * 2}}


def preload_store(path: str, seed: int, records: int, scenarios: int
                  ) -> Dict[str, int]:
    """Write the seeded history; records per scenario name."""
    rng = random.Random(derive_seed(seed, "serve-store"))
    catalog = [s for s in list_scenarios() if s.name != POST_SCENARIO]
    chosen = [get_scenario(POST_SCENARIO)] + catalog[:scenarios - 1]
    identities = [(s.name, s.family, s.content_hash) for s in chosen]
    for i in range(len(identities), scenarios):
        name = f"e2e-archived-{i:02d}"
        identities.append((name, "archived",
                           hashlib.sha256(name.encode()).hexdigest()))
    versions = ["%064x" % rng.getrandbits(256) for _ in range(3)]
    order = [i % len(identities) for i in range(records)]
    rng.shuffle(order)
    batch = []
    for index in order:
        name, family, content_hash = identities[index]
        failed = rng.random() < 0.03
        batch.append(SweepRecord(
            scenario=name, family=family, scenario_hash=content_hash,
            code_version=rng.choice(versions),
            status="error" if failed else "ok",
            elapsed_s=rng.uniform(0.01, 2.0),
            summary=None if failed else _fake_summary(rng, name),
            error="Traceback: synthetic failure" if failed else None))
        if len(batch) == 1000:
            append_jsonl(path, batch)
            batch = []
    append_jsonl(path, batch)
    return dict(Counter(identities[i][0] for i in order))


def schedule(seed: int, seconds: float, rate: float, post_every: float,
             names: List[str]) -> List[Item]:
    rng = random.Random(derive_seed(seed, "serve-mix"))
    kinds = [kind for kind, _ in MIX]
    weights = [weight for _, weight in MIX]
    items = []
    for i in range(int(seconds * rate)):
        kind = rng.choices(kinds, weights)[0]
        items.append(Item(
            at=i / rate, kind=kind,
            scenario=rng.choice(names) if kind in ("results", "latest")
            else None,
            conditional=kind == "scenarios" and rng.random() < 0.5))
    at = post_every / 2
    while at < seconds:
        items.append(Item(at=at, kind="post"))
        at += post_every
    items.sort(key=lambda item: item.at)
    return items


# -- requests and their checks ------------------------------------------------

def request_parts(item: Item, state: MixState
                  ) -> Tuple[str, str, Dict[str, str], Dict[str, str], bytes]:
    """(method, path, query, headers, body) of one scheduled request."""
    if item.kind == "results":
        query = {"scenario": item.scenario, "limit": str(PAGE),
                 "order": "desc"}
        return "GET", "/results", query, {}, b""
    if item.kind == "latest":
        return "GET", f"/results/{item.scenario}/latest", {}, {}, b""
    if item.kind == "scenarios":
        headers = {"if-none-match": state.etag} if item.conditional else {}
        return "GET", "/scenarios", {}, headers, b""
    if item.kind == "run":
        return "GET", f"/runs/{state.jobs[-1]}", {}, {}, b""
    body = json.dumps({"scenario": POST_SCENARIO, "rerun": True}).encode()
    return "POST", "/runs", {}, {}, body


def check_response(item: Item, target: str, status: int,
                   headers: Dict[str, str], body: bytes, state: MixState,
                   tally: harness.Tally) -> None:
    expected = 202 if item.kind == "post" else \
        304 if item.conditional else 200
    tally.attempted += 1
    if not tally.check(status == expected, f"{item.kind} {target}: status "
                                           f"{status}, expected {expected}"):
        return
    if status == 304:
        return
    try:
        doc = json.loads(body)
    except ValueError:
        tally.fail(f"{item.kind} {target}: body is not JSON")
        return
    if item.kind == "results":
        base = state.counts[item.scenario]
        extra = state.posted if item.scenario == POST_SCENARIO else 0
        tally.check(base <= doc["total"] <= base + extra,
                    f"{target}: total {doc['total']}, expected {base}"
                    + (f"..{base + extra}" if extra else ""))
    elif item.kind == "latest":
        tally.check(doc.get("scenario") == item.scenario,
                    f"{target}: record of {doc.get('scenario')!r}")
    elif item.kind == "scenarios":
        tally.check(headers.get("etag") == state.etag,
                    f"{target}: catalog ETag changed")
    elif item.kind == "run":
        tally.check(doc.get("id") in state.jobs, f"{target}: wrong job")
    else:
        state.jobs.append(doc["id"])


# -- the server ------------------------------------------------------------------

class Server:
    """``repro serve`` as a child process on a scratch cache."""

    def __init__(self, work: str, cache: str, tag: str) -> None:
        self.work = work
        self.cache = cache
        self.out_path = os.path.join(work, f"server-{tag}.out")
        self.err_path = os.path.join(work, f"server-{tag}.err")
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0

    def start(self) -> float:
        """Start it; seconds until ``/healthz`` first answers 200."""
        start = time.perf_counter()
        with open(self.out_path, "wb") as out, \
                open(self.err_path, "wb") as err:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
                 "--jobs", "1", "--cache-dir", self.cache],
                cwd=self.work, env=harness.program_env(), stdout=out,
                stderr=err)
        deadline = start + STARTUP_TIMEOUT_S
        while not self.port:
            self._alive_before(deadline)
            with open(self.out_path, "r", encoding="utf-8") as handle:
                match = _ANNOUNCE.search(handle.read())
            if match:
                self.port = int(match.group(1))
            else:
                time.sleep(0.005)
        while True:
            self._alive_before(deadline)
            try:
                if self.get("/healthz")[0] == 200:
                    return time.perf_counter() - start
            except OSError:
                pass                  # listening, but not answering yet
            time.sleep(0.005)

    def _alive_before(self, deadline: float) -> None:
        if self.proc.poll() is not None:
            with open(self.err_path, "r", encoding="utf-8") as handle:
                tail = handle.read()[-2000:]
            raise RuntimeError(f"repro serve exited with "
                               f"{self.proc.returncode}: {tail}")
        if time.perf_counter() > deadline:
            raise RuntimeError("repro serve did not come up in time")

    def request(self, method: str, path: str, body: bytes = b""
                ) -> Tuple[int, Dict[str, str], bytes]:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            conn.request(method, path, body=body or None)
            response = conn.getresponse()
            return (response.status,
                    {k.lower(): v for k, v in response.getheaders()},
                    response.read())
        finally:
            conn.close()

    def get(self, path: str) -> Tuple[int, Dict[str, str], bytes]:
        return self.request("GET", path)

    def stop(self) -> None:
        if self.proc is None or self.proc.poll() is not None:
            return
        self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def _wait_jobs(server: Server, job_ids: List[str]) -> List[Dict[str, object]]:
    deadline = time.perf_counter() + JOB_TIMEOUT_S
    jobs = []
    for job_id in job_ids:
        while True:
            status, _, body = server.get(f"/runs/{job_id}")
            job = json.loads(body) if status == 200 else {}
            if job.get("status") in ("ok", "error", "timeout", "cancelled"):
                jobs.append(job)
                break
            if time.perf_counter() > deadline:
                raise RuntimeError(f"job {job_id} did not finish in time")
            time.sleep(0.02)
    return jobs


def _warm_up(server: Server, state: MixState, tally: harness.Tally) -> None:
    """One run through the pool (forking it) and the catalog's ETag."""
    status, _, body = server.request("POST", "/runs", json.dumps(
        {"scenario": POST_SCENARIO, "rerun": True}).encode())
    tally.check(status == 202, f"warm-up POST /runs: status {status}")
    job = _wait_jobs(server, [json.loads(body)["id"]])[0]
    tally.check(job["status"] == "ok", f"warm-up job: {job['status']}")
    state.jobs.append(job["id"])
    state.counts[POST_SCENARIO] += 1
    state.etag = server.get("/scenarios")[1].get("etag")


# -- the open-loop client ------------------------------------------------------------

async def _read_response(reader: asyncio.StreamReader
                         ) -> Tuple[int, Dict[str, str], bytes]:
    head = (await reader.readuntil(b"\r\n\r\n")).decode("latin-1")
    lines = head.split("\r\n")
    headers = {}
    for line in lines[1:]:
        name, sep, value = line.partition(":")
        if sep:
            headers[name.strip().lower()] = value.strip()
    body = await reader.readexactly(int(headers.get("content-length", "0")))
    return int(lines[0].split()[1]), headers, body


async def open_loop(port: int, items: List[Item], state: MixState,
                    tally: harness.Tally) -> Dict[str, object]:
    loop = asyncio.get_running_loop()
    queue: "asyncio.Queue[Optional[Tuple[float, Item]]]" = asyncio.Queue()
    #: (kind, scheduled offset, latency from due time) per response.
    samples: List[Tuple[str, float, float]] = []
    late: List[float] = []
    finished = [0.0]

    async def connection() -> None:
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        try:
            while True:
                entry = await queue.get()
                if entry is None:
                    return
                due, item = entry
                method, path, query, headers, body = \
                    request_parts(item, state)
                target = path + ("?" + "&".join(
                    f"{k}={quote(v)}" for k, v in query.items())
                    if query else "")
                head = [f"{method} {target} HTTP/1.1", "Host: bench",
                        f"Content-Length: {len(body)}"]
                head += [f"{k}: {v}" for k, v in headers.items()]
                if item.kind == "post":
                    state.posted += 1
                writer.write(("\r\n".join(head) + "\r\n\r\n").encode()
                             + body)
                status, got_headers, got_body = await _read_response(reader)
                done = loop.time()
                samples.append((item.kind, item.at, done - due))
                finished[0] = max(finished[0], done)
                check_response(item, target, status, got_headers, got_body,
                               state, tally)
        finally:
            writer.close()
            await writer.wait_closed()

    workers = [asyncio.ensure_future(connection())
               for _ in range(CONNECTIONS)]
    start = loop.time() + 0.05
    for item in items:
        due = start + item.at
        delay = due - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        late.append(loop.time() - due)
        queue.put_nowait((due, item))
    for _ in workers:
        queue.put_nowait(None)
    await asyncio.gather(*workers)
    return {"samples": samples, "late": late,
            "wall_s": finished[0] - start}


def _by_kind_p50_ms(samples: List[Tuple[str, float, float]]
                    ) -> Dict[str, float]:
    kinds = sorted({kind for kind, _, _ in samples})
    return {kind: harness.median([s for k, _, s in samples if k == kind])
            * 1e3 for kind in kinds}


def steady_latency(samples: List[Tuple[str, float, float]], seconds: float,
                   post_every: float) -> Dict[str, object]:
    """Latency over the steady third of the phase's blocks.

    A block is one ``POST /runs`` interval of the schedule, so each holds
    one write and its invalidations; blocks rank by their median latency.
    A trailing partial interval is left out.
    """
    blocks = [harness.Block(seconds=post_every)
              for _ in range(max(1, int(seconds // post_every)))]
    for _, at, latency in samples:
        if int(at // post_every) < len(blocks):
            blocks[int(at // post_every)].latencies.append(latency)
    kept = harness.steady_blocks(blocks,
                                 key=lambda b: harness.median(b.latencies))
    summary = harness.latency_metrics([value for block in kept
                                       for value in block.latencies])
    summary["blocks"] = f"{len(kept)}/{len(blocks)}"
    return summary


def _http_run(opts, seconds: float, state: MixState, server: Server,
              names: List[str], tally: harness.Tally) -> Dict[str, object]:
    """The measured open loop, then every job it posted to completion."""
    sizes = _sizes(opts.smoke)
    items = schedule(opts.seed, seconds, sizes["rate"], sizes["post_every"],
                     names)
    warm_jobs = len(state.jobs)
    phase = asyncio.run(open_loop(server.port, items, state, tally))
    jobs = _wait_jobs(server, state.jobs[warm_jobs:])
    ok = sum(1 for job in jobs if job["status"] == "ok")
    tally.check(ok == len(jobs), f"{len(jobs) - ok} posted runs did not "
                                 "finish ok")
    status, _, body = server.get(f"/results?scenario={POST_SCENARIO}"
                                 "&limit=1")
    expected = state.counts[POST_SCENARIO] + ok
    tally.check(status == 200 and json.loads(body)["total"] == expected,
                f"{POST_SCENARIO}: store total after the run is not "
                f"{expected}")
    phase["ok_runs"] = ok
    phase["roundtrip_s"] = [job["finished_at"] - job["submitted_at"]
                            for job in jobs]
    phase["interval_s"] = 1.0 / sizes["rate"]
    return phase


def _setup(opts, tally: harness.Tally, reps: int
           ) -> Tuple[Server, MixState, List[str], List[float]]:
    sizes = _sizes(opts.smoke)
    cache = os.path.join(opts.work, "cache")
    store = default_store_path(cache)
    os.makedirs(cache)
    counts = preload_store(store, opts.seed, int(sizes["records"]),
                           int(sizes["scenarios"]))
    setups = []
    for rep in range(reps):
        # Every start indexes the store from scratch, as a cold start does.
        if os.path.exists(index_path(store)):
            os.remove(index_path(store))
        server = Server(opts.work, cache, str(rep))
        try:
            setups.append(server.start())
        finally:
            if rep < reps - 1:
                server.stop()
    state = MixState(counts)
    try:
        _warm_up(server, state, tally)
    except BaseException:
        server.stop()
        raise
    return server, state, sorted(counts), setups


def run(opts, tally: harness.Tally, traced: bool
        ) -> Tuple[Dict[str, float], Dict[str, object]]:
    if traced:
        return _traced(opts, tally)
    server, state, names, setups = _setup(
        opts, tally, 1 if opts.smoke else SETUP_REPS)
    try:
        phase = _http_run(opts, opts.seconds, state, server, names, tally)
    finally:
        server.stop()
    samples = phase["samples"]
    steady = steady_latency(samples, opts.seconds,
                            _sizes(opts.smoke)["post_every"])
    late = phase["late"]
    late_p99 = harness.percentile(late, 0.99)
    # The schedule is only honest while the generator keeps up.
    valid = late_p99 <= phase["interval_s"]
    if not valid:
        print(f"warning: the generator ran {late_p99 * 1e3:.1f} ms late at "
              "p99, more than one interval: this run is invalid",
              file=sys.stderr)
    metrics = {
        "setup_s": harness.median(setups),
        # The largest server-side process (the server or its pool worker).
        "peak_rss_mb": harness.peak_rss_mb(children=True),
        "throughput_per_s": len(samples) / phase["wall_s"],
        "latency_p50_ms": steady["p50_ms"],
        "latency_tail_ms": steady["tail_ms"],
    }
    details = {
        "requests": dict(Counter(kind for kind, _, _ in samples)),
        "setup_reps_s": setups, "steady": steady,
        "p50_ms_by_kind": _by_kind_p50_ms(samples),
        "generator_late_ms": {"p50": harness.median(late) * 1e3,
                              "p99": late_p99 * 1e3},
        "generator_valid": valid,
        "run_roundtrip_p50_s": harness.median(phase["roundtrip_s"]),
        "operation": "one HTTP request, timed from when it was due",
    }
    return metrics, details


# -- the traced run: the same mix, handled in-process ------------------------------

async def _in_process(app: ReproApp, items: List[Item], state: MixState,
                      tally: harness.Tally, alternate: bool = False
                      ) -> List[Tuple[str, float, bool]]:
    """Hand the scheduled requests to ``app.handle`` on their schedule.

    With ``alternate``, every second request of each kind runs traced,
    starting with the first, so the traced and untraced halves meet the
    same cache state and mix.  Returns (kind, handle seconds, traced) per
    request.
    """
    loop = asyncio.get_running_loop()
    durations: List[Tuple[str, float, bool]] = []
    seen: Counter = Counter()
    start = loop.time() + 0.01
    for item in items:
        delay = start + item.at - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        method, path, query, headers, body = request_parts(item, state)
        if item.kind == "post":
            state.posted += 1
        seen[item.kind] += 1
        traced = alternate and seen[item.kind] % 2 == 1
        TRACER.configure(sample_rate=1.0 if traced else 0.0)
        t0 = time.perf_counter()
        with TRACER.start_trace("bench.root.request"):
            with TRACER.span(f"bench.serve.{item.kind}"):
                response = await app.handle(Request(
                    method=method, path=path, query=query, headers=headers,
                    body=body))
        durations.append((item.kind, time.perf_counter() - t0, traced))
        TRACER.configure(sample_rate=0.0)
        check_response(item, path, response.status,
                       {k.lower(): v for k, v in response.headers.items()},
                       response.body, state, tally)
    return durations


async def _settle(app: ReproApp) -> None:
    deadline = time.perf_counter() + JOB_TIMEOUT_S
    while app.jobs.pending():
        if time.perf_counter() > deadline:
            raise RuntimeError("in-process jobs did not finish in time")
        await asyncio.sleep(0.02)


def _task_payloads(record: SweepRecord) -> Tuple[int, float]:
    args = (get_scenario(POST_SCENARIO), 60.0, tuple(DEFAULT_BASELINES),
            TaskContext())
    size = 0
    start = time.perf_counter()
    for payload in (args, record):
        blob = pickle.dumps(payload)
        pickle.loads(blob)
        size += len(blob)
    return size, time.perf_counter() - start


def _traced(opts, tally: harness.Tally
            ) -> Tuple[Dict[str, float], Dict[str, object]]:
    sizes = _sizes(opts.smoke)
    server, state, names, _ = _setup(opts, tally, 1)
    try:
        phase = _http_run(opts, opts.seconds / 2, state, server, names,
                          tally)
    finally:
        server.stop()
    http_p50 = harness.median([s for _, _, s in phase["samples"]])
    state.counts[POST_SCENARIO] += phase["ok_runs"]
    state.posted = 0
    items = schedule(opts.seed, opts.seconds / 2, sizes["rate"],
                     sizes["post_every"], names)

    app = ReproApp(cache_dir=server.cache, pool_processes=1,
                   runtime_interval_s=0.0, history_interval_s=3600.0)
    out: Dict[str, object] = {}

    async def main() -> None:
        app.start()
        try:
            await app.handle(Request(method="GET", path="/healthz"))
            state.etag = (await app.handle(Request(
                method="GET", path="/scenarios"))).headers.get("ETag")
            # A job of this app for the GET /runs/{id} requests to name.
            state.posted = 1
            await _in_process(app, [Item(at=0.0, kind="post")], state, tally)
            await _settle(app)
            state.counts[POST_SCENARIO] += 1
            state.posted = 0
            jobs_before = {job.id for job in app.jobs.jobs()}
            cache_before = (app.cache.hits, app.cache.misses)
            parsed_before = app.store.stats["records_parsed"]
            counters_before = counters_snapshot()
            start = time.perf_counter()
            with TRACER.capture() as captured:
                out["durations"] = await _in_process(app, items, state,
                                                     tally, alternate=True)
                await _settle(app)
            out["wall_s"] = time.perf_counter() - start
            out["counters"] = harness.counter_deltas(counters_before,
                                                     counters_snapshot())
            out["spans"] = captured.spans
            out["jobs"] = [job for job in app.jobs.jobs()
                           if job.id not in jobs_before]
            out["hits"] = app.cache.hits - cache_before[0]
            out["misses"] = app.cache.misses - cache_before[1]
            out["parsed"] = app.store.stats["records_parsed"] - parsed_before
        finally:
            await app.close()

    asyncio.run(main())
    respawn_pool("bench-end")

    untraced = [s for _, s, traced in out["durations"] if not traced]
    traced = [s for _, s, traced in out["durations"] if traced]
    spans = out["spans"]
    selfs = harness.layer_self_times(spans)
    jobs = out["jobs"]
    records = [job.record for job in jobs if job.record is not None]
    tally.check(all(job.status == "ok" for job in jobs),
                "an in-process run did not finish ok")
    task_bytes, pickle_s = _task_payloads(records[0]) if records \
        else (0, 0.0)
    inproc_p50 = harness.median(untraced)
    counters = out["counters"]
    lookups = counters["route_cache_hits"] + counters["route_cache_misses"]
    metrics = {
        "netsim.route_cache_hit_ratio": harness.ratio(
            counters["route_cache_hits"], lookups),
        "netsim.allocations": float(counters["allocations"]),
        "simkernel.events": float(counters["events"]),
        "env.measurements": float(sum(r.summary.get("measurements", 0)
                                      for r in records if r.summary)),
        "env.probe_memo_hits": float(counters["probe_memo_hits"]),
        "sweep.busy_ratio": sum(r.elapsed_s for r in records)
        / out["wall_s"],
        "sweep.task_bytes": float(task_bytes),
        "sweep.pickle_s": pickle_s,
        "serve.lru_hit_ratio": harness.ratio(out["hits"],
                                             out["hits"] + out["misses"]),
        "serve.network_share": (http_p50 - inproc_p50) / http_p50,
        "serve.store_records_parsed": out["parsed"] / len(out["durations"]),
        "serve.job_s": harness.median([job.finished_mono - job.started_mono
                                       for job in jobs]),
        "bench.trace_overhead_ratio": (sum(traced) / len(traced))
        / (sum(untraced) / len(untraced)),
        # The traced half's serve self time against its own wall time.
        "bench.layer_coverage_ratio": sum(
            value for name, value in selfs.items()
            if name.split(".")[1] == "serve") / sum(traced),
    }
    for kind in ("results", "latest", "scenarios"):
        metrics[f"serve.handle_{kind}_ms_p50"] = harness.median(
            harness.durations_by(spans, f"bench.serve.{kind}")
            .get(None, [])) * 1e3
    details = {"http_p50_ms": http_p50 * 1e3,
               "in_process_p50_ms": inproc_p50 * 1e3,
               "requests": len(out["durations"]), "jobs": len(jobs),
               "untraced_handle_s": sum(untraced),
               "traced_handle_s": sum(traced),
               "layer_self_s": selfs, "counters": counters}
    return metrics, details
