"""Workloads ``nws-query`` and ``nws-live``: forecast queries on a deployed NWS.

Set-up generates a seeded constellation, maps it with ENV, plans the
deployment and runs the simulated NWS for ten simulated minutes.  One client
then issues seeded queries in a closed loop: uniform host pairs, bandwidth or
latency.  ``nws-query`` only reads, so it exercises ``nws`` forecasting and
``core.aggregation`` almost exclusively.  ``nws-live`` advances the
simulation 30 s after every 20 queries, so measurements keep arriving while
reads continue: a forecast or aggregation cache must invalidate here, and
``simkernel`` plus ``netsim.flows`` become a major layer.

A query's cost grows with the stored series (one more sample per pair per
minute simulated), so ``nws-live`` runs in episodes: each deploys afresh,
untimed, and runs ``EPISODE`` blocks.  Every episode then does the same
work, and episodes rank by wall time as ``nws-query``'s blocks do.

The constellation's structure (sites, clusters, hosts, which cluster sits
behind a gateway) is fixed; the seed draws which cluster of a site is the
hub, link bandwidths and latencies, and the query stream.  Every tenth
query is answered a second time, untimed, by an oracle assembled from
public pieces (stored series, a fresh ``ForecasterBank``, an ``Aggregator``).
"""

from __future__ import annotations

import math
import random
import time
from typing import Dict, Iterator, List, Optional, Tuple

from repro.core import Aggregator, coverage_graph, plan_from_view
from repro.env import map_platform
from repro.netsim import SiteBuilder, attach_cluster, finish_platform
from repro.nws import (
    METRIC_BANDWIDTH,
    METRIC_LATENCY,
    ForecasterBank,
    NWSSystem,
)
from repro.obs.trace import TRACER
from repro.perf import counters_snapshot
from repro.simkernel import derive_seed

import harness

SETUP_REPS = 5
WARM_S = 600.0
#: Queries per block; nws-live advances the simulation once per block.
BLOCK = 20
ADVANCE_S = 30.0
#: Blocks per nws-live episode.
EPISODE = 3
ORACLE_EVERY = 10
#: Sites x clusters per site x hosts per cluster.
SHAPE = (4, 2, 4)
SMOKE_SHAPE = (2, 2, 3)
SMOKE_WARM_S = 120.0
#: Queries per traced comparison, per measured second.
TRACE_QUERIES_PER_S = 10


def build_platform(seed: int, shape: Tuple[int, int, int]):
    """The seeded constellation: each site has one hub and one switched
    cluster, the second one behind a dual-homed gateway host."""
    sites, clusters, hosts = shape
    rng = random.Random(derive_seed(seed, "nws-platform"))
    builder = SiteBuilder(name=f"e2e-nws-{seed}")
    platform = builder.platform
    platform.add_external("internet")
    builder.add_router("backbone", ip="192.168.254.1")
    builder.connect("backbone", "internet", 100.0, latency_s=5e-3)
    truth: Dict[str, Dict[str, object]] = {}
    for s in range(sites):
        router = f"site{s}-router"
        builder.add_router(router, ip=f"10.{s + 1}.0.1")
        builder.connect(router, "backbone", 10.0,
                        latency_s=5e-3 * rng.uniform(0.8, 1.25))
        for c in range(clusters):
            kind = "switch" if c % 2 else "hub"
            names = [f"s{s}c{c}h{h}" for h in range(hosts)]
            attach_cluster(builder, segment=f"s{s}c{c}-{kind}", kind=kind,
                           host_names=names, subnet=f"10.{s + 1}.{c + 1}",
                           domain=f"site{s}.example.org",
                           bandwidth_mbps=rng.choice((100.0, 1000.0)),
                           latency_s=1e-4, attach_to=router, site=s,
                           ground_truth=truth,
                           gateway=names[0] if c % 2 else None)
    return finish_platform(platform, truth)


def deploy(seed: int, smoke: bool):
    """Generate, map, plan and warm up one NWS deployment."""
    with TRACER.start_trace("bench.root.setup"):
        with TRACER.span("bench.netsim.build"):
            platform = build_platform(seed, SMOKE_SHAPE if smoke else SHAPE)
        with TRACER.span("bench.env.map"):
            view = map_platform(platform, platform.host_names()[0])
        with TRACER.span("bench.core.plan"):
            plan = plan_from_view(view)
        with TRACER.span("bench.nws.deploy"):
            system = NWSSystem(platform, plan)
        with TRACER.span("bench.simkernel.run"):
            system.run(SMOKE_WARM_S if smoke else WARM_S)
    return system, view


def queries(seed: int, plan) -> Iterator[Tuple[str, str, str]]:
    """Uniform host pairs x {bandwidth, latency}, dealt in blocks.

    A pair the plan covers with one measured edge is answered from one
    series (~0.3 ms); any other pair aggregates every edge's forecast
    (~35 ms).  Each block of ``BLOCK`` queries holds the population's share
    of the first kind, drawn without replacement from seeded decks, so every
    block does the same work and blocks can be ranked by their wall time.
    """
    rng = random.Random(derive_seed(seed, "nws-queries"))
    graph = coverage_graph(plan)
    hosts = sorted(plan.hosts)
    pairs = [(a, b) for i, a in enumerate(hosts) for b in hosts[i + 1:]]
    one_edge = [pair for pair in pairs if graph.has_edge(*pair)]
    aggregated = [pair for pair in pairs if not graph.has_edge(*pair)]
    share = round(BLOCK * len(one_edge) / len(pairs))
    classes = ((one_edge, share, []), (aggregated, BLOCK - share, []))
    while True:
        block = []
        for population, count, deck in classes:
            for _ in range(count):
                if not deck:
                    deck.extend(population)
                    rng.shuffle(deck)
                block.append(deck.pop())
        rng.shuffle(block)
        for a, b in block:
            src, dst = (a, b) if rng.random() < 0.5 else (b, a)
            yield src, dst, rng.choice((METRIC_BANDWIDTH, METRIC_LATENCY))


# -- the oracle -----------------------------------------------------------------

def oracle(system: NWSSystem, src: str, dst: str, metric: str
           ) -> Tuple[str, Optional[float]]:
    """(method, value) of a query, rebuilt from the stored series."""
    config = system.config

    def stored(a: str, b: str, m: str):
        for pair in ((a, b), (b, a)):
            series = system.series(pair[0], pair[1], m)
            if series is not None and len(series) > 0:
                return series
        return None

    def forecast(series) -> float:
        bank = ForecasterBank(window=config.forecast_window,
                              alpha=config.exponential_alpha)
        bank.update_many(series.values())
        return bank.forecast().value

    series = stored(src, dst, metric)
    if series is not None:
        return "direct", forecast(series)
    rep = system.plan.pair_source(src, dst)
    if rep is not None:
        series = stored(*sorted(rep), metric)
        if series is not None:
            return "representative", forecast(series)

    def pair_values(a: str, b: str) -> Tuple[float, float]:
        values = []
        for m in (METRIC_LATENCY, METRIC_BANDWIDTH):
            series = stored(a, b, m)
            values.append(forecast(series) if series is not None
                          else float("nan"))
        return values[0], values[1]

    estimate = Aggregator(system.plan, pair_values).estimate(src, dst)
    if estimate is None:
        return "unavailable", None
    value = (estimate.bandwidth_mbps if metric == METRIC_BANDWIDTH
             else estimate.latency_s)
    if not math.isfinite(value):
        return "unavailable", None
    return "aggregated", value


def check_answer(system: NWSSystem, query: Tuple[str, str, str], answer,
                 with_oracle: bool, tally: harness.Tally) -> None:
    src, dst, metric = query
    if not tally.check(answer.available, f"{src}->{dst} {metric}: "
                                         "connected pair unavailable"):
        return
    if not with_oracle:
        return
    method, value = oracle(system, src, dst, metric)
    got = answer.forecast.value
    tally.check(method == answer.method and value is not None
                and abs(got - value) <= 1e-9 * max(abs(value), 1e-300),
                f"{src}->{dst} {metric}: answered {answer.method} {got!r}, "
                f"oracle {method} {value!r}")


# -- the workload -----------------------------------------------------------------

def _loop(system: NWSSystem, stream, live: bool, tally: harness.Tally,
          seconds: Optional[float] = None, count: Optional[int] = None
          ) -> Tuple[List[harness.Block], List[str]]:
    """Issue blocks of ``BLOCK`` queries until ``seconds`` of timed work or
    ``count`` queries; with ``live``, each block ends with an advance.

    Returns the blocks (query latencies; wall time of queries and advance)
    and every answer's method.  Oracle checks run outside the timed work.
    """
    blocks: List[harness.Block] = []
    methods: List[str] = []
    timed = 0.0
    while (count is None or len(methods) < count) and \
            (seconds is None or timed < seconds):
        block = harness.Block(seconds=0.0)
        for _ in range(BLOCK):
            query = next(stream)
            start = time.perf_counter()
            with TRACER.start_trace("bench.root.query"):
                with TRACER.span("bench.nws.query") as span:
                    answer = system.query(*query)
                    span.set_attrs(method=answer.method)
            block.latencies.append(time.perf_counter() - start)
            methods.append(answer.method)
            tally.attempted += 1
            check_answer(system, query, answer,
                         len(methods) % ORACLE_EVERY == 0, tally)
        block.seconds = sum(block.latencies)
        if live:
            start = time.perf_counter()
            with TRACER.start_trace("bench.root.advance"):
                with TRACER.span("bench.simkernel.run"):
                    system.run(ADVANCE_S)
            block.seconds += time.perf_counter() - start
        timed += block.seconds
        blocks.append(block)
    return blocks, methods


def _deployments(opts, live: bool, tally: harness.Tally,
                 setups: List[float], seconds: Optional[float] = None,
                 count: Optional[int] = None):
    """Deploy and query until ``seconds`` of timed work or ``count``
    queries, as the workload does: nws-query deploys once, nws-live
    deploys afresh for every episode of ``EPISODE`` blocks.

    Returns the last system and view, each deployment's blocks and every
    answer's method; ``setups`` gains each deployment's wall time.
    """
    runs: List[List[harness.Block]] = []
    methods: List[str] = []
    stream = None
    timed = 0.0
    while not runs or (seconds is None or timed < seconds) and \
            (count is None or len(methods) < count):
        start = time.perf_counter()
        system, view = deploy(opts.seed, opts.smoke)
        setups.append(time.perf_counter() - start)
        # Every deployment of the seed has the same plan: one stream
        # continues across them.
        stream = stream or queries(opts.seed, system.plan)
        left = None if count is None else count - len(methods)
        if live:
            # Episodes run whole, even past ``seconds``.
            left = min(left or EPISODE * BLOCK, EPISODE * BLOCK)
        blocks, answered = _loop(
            system, stream, live, tally, count=left,
            seconds=None if live or seconds is None else seconds - timed)
        runs.append(blocks)
        methods.extend(answered)
        timed += sum(block.seconds for block in blocks)
    return system, view, runs, methods


def run(opts, tally: harness.Tally, traced: bool
        ) -> Tuple[Dict[str, float], Dict[str, object]]:
    live = opts.workload == "nws-live"
    if traced:
        return _traced(opts, live, tally)
    setups: List[float] = []
    if not live:
        for _ in range(0 if opts.smoke else SETUP_REPS - 1):
            start = time.perf_counter()
            deploy(opts.seed, opts.smoke)
            setups.append(time.perf_counter() - start)
    system, _view, runs, methods = _deployments(opts, live, tally, setups,
                                                seconds=opts.seconds)
    if live:
        # One block per episode: episodes, not blocks, do equal work.
        blocks = [harness.Block(
            seconds=sum(block.seconds for block in episode),
            latencies=[value for block in episode for value in block.latencies])
            for episode in runs]
    else:
        blocks = runs[0]
    steady = harness.closed_loop_metrics(blocks)
    metrics = {
        "setup_s": harness.median(setups),
        "peak_rss_mb": harness.peak_rss_mb(),
        "throughput_per_s": steady["per_s"],
        "latency_p50_ms": steady["p50_ms"],
        "latency_tail_ms": steady["tail_ms"],
    }
    timed = sum(block.seconds for block in blocks)
    details = {"hosts": len(system.plan.hosts),
               "cliques": len(system.plan.cliques),
               "queries": len(methods), "timed_s": timed,
               "mean_rate_per_s": len(methods) / timed,
               "setup_reps_s": setups, "steady": steady,
               "methods": {m: methods.count(m) for m in sorted(set(methods))},
               "operation": "one forecast query"
                            + (f" (plus a {ADVANCE_S:g} s advance every "
                               f"{BLOCK}, {EPISODE * BLOCK} per episode)"
                               if live else "")}
    return metrics, details


def _series_points(system: NWSSystem) -> int:
    return sum(len(memory.fetch(*key))
               for memory in system.memories.values()
               for key in memory.series_keys())


def _traced(opts, live: bool, tally: harness.Tally
            ) -> Tuple[Dict[str, float], Dict[str, object]]:
    count = BLOCK if opts.smoke else TRACE_QUERIES_PER_S * opts.seconds
    # The same deployments and query stream twice, untraced (the reference)
    # and then under the tracer.
    _, _, untraced, _ = _deployments(opts, live, tally, [], count=count)

    TRACER.configure(sample_rate=1.0)
    before = counters_snapshot()
    with TRACER.capture() as captured:
        system, view, traced, methods = _deployments(opts, live, tally, [],
                                                     count=count)
    counters = harness.counter_deltas(before, counters_snapshot())
    TRACER.configure(sample_rate=0.0)

    untraced_wall = sum(b.seconds for blocks in untraced for b in blocks)
    traced_wall = sum(b.seconds for blocks in traced for b in blocks)
    # The two passes run one after the other: compare their steady blocks,
    # not their walls, or a disturbed stretch of either reads as overhead.
    untraced_steady = harness.closed_loop_metrics(
        [b for blocks in untraced for b in blocks])
    traced_steady = harness.closed_loop_metrics(
        [b for blocks in traced for b in blocks])
    spans = captured.spans
    setup_traces = {span["trace_id"] for span in spans
                    if span["name"] == "bench.root.setup"}
    selfs = harness.layer_self_times(spans)
    loop_selfs = harness.layer_self_times(
        [span for span in spans if span["trace_id"] not in setup_traces])
    by_method = harness.durations_by(spans, "bench.nws.query", "method")
    answered = sum(1 for m in methods if m != "unavailable")
    lookups = counters["route_cache_hits"] + counters["route_cache_misses"]
    metrics = {
        "netsim.build_s": selfs.get("bench.netsim.build", 0.0),
        "netsim.route_cache_hit_ratio": harness.ratio(
            counters["route_cache_hits"], lookups),
        "netsim.allocations": float(counters["allocations"]),
        "simkernel.events": float(counters["events"]),
        "simkernel.run_s": selfs.get("bench.simkernel.run", 0.0),
        "env.map_s": selfs.get("bench.env.map", 0.0),
        "env.measurements": float(view.stats.measurements),
        "env.probe_memo_hits": float(counters["probe_memo_hits"]),
        "core.plan_s": selfs.get("bench.core.plan", 0.0),
        "nws.aggregated_share": harness.ratio(methods.count("aggregated"),
                                              answered),
        "nws.answered_ratio": harness.ratio(answered, len(methods)),
        "nws.series_points": float(_series_points(system)),
        "nws.experiments": float(sum(system.measurement_counts().values())),
        "bench.trace_overhead_ratio": untraced_steady["per_s"]
        / traced_steady["per_s"],
        "bench.layer_coverage_ratio": sum(
            value for name, value in loop_selfs.items()
            if name.split(".")[1] != "root") / traced_wall,
    }
    for method in ("direct", "representative", "aggregated"):
        metrics[f"nws.query_{method}_ms_p50"] = \
            harness.median(by_method.get(method, [])) * 1e3
    details = {"queries": len(methods), "deployments": len(traced),
               "untraced_loop_s": untraced_wall,
               "traced_loop_s": traced_wall,
               "methods": {m: methods.count(m) for m in sorted(set(methods))},
               "layer_self_s": selfs, "counters": counters}
    return metrics, details
