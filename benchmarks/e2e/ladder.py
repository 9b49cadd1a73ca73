"""Workload ``sweep-ladder``: the scenario sweep over a seeded size ladder.

The benchmark registers its own scenarios: generated platforms from three
families at geometric sizes, plus one churn wrapper per family, and sweeps
them with ``run_sweep(jobs=2, rerun=True)`` into a fresh cache.  The quality
stage dominates this workload (the collision scan, ``harmful_collisions``
and ``completeness_accuracy``); the NWS query path is idle, so a change to
the quality layer should move the numbers here and nowhere else.

Platform structure is fixed per rung: the seed draws link kinds, gateways,
bandwidths and churn events, never host or cluster counts, so run-to-run
cost stays comparable across seeds.
"""

from __future__ import annotations

import os
import pickle
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core import (
    QualityReport,
    check_constraints,
    completeness_accuracy,
    find_collisions,
    harmful_collisions,
    measurement_periods,
    plan_from_view,
)
from repro.dynamics import DynamicScenario, register_dynamic_scenario, \
    run_replay
from repro.env import map_platform
from repro.netsim import (
    FatTreeSpec,
    SyntheticSpec,
    WanGridSpec,
    generate_constellation,
    generate_fat_tree,
    generate_wan_grid,
)
from repro.obs.trace import TRACER
from repro.perf import counters_snapshot
from repro.pipeline import BASELINE_PLANNERS, PipelineResult
from repro.scenarios import get_scenario, register_scenario
from repro.simkernel import derive_seed
from repro.sweep import DEFAULT_BASELINES, respawn_pool, run_sweep
from repro.sweep.runner import TaskContext

import harness

JOBS = 2
PERIOD_S = 60.0
#: Each setup builds the ladder and forks the pool anew; the median of
#: these repetitions is ``setup_s``.
SETUP_REPS = 3

#: Rung sizes per family: constellation sites, WAN grid rows x cols,
#: fat-tree pods x edges per pod x hosts per edge.
LADDER = {
    "constellation": ((2,), (3,), (5,), (8,)),
    "wan-grid": ((2, 2), (2, 3), (3, 3), (4, 4)),
    "fat-tree": ((2, 2, 3), (3, 3, 3), (4, 4, 4), (6, 4, 4)),
}
SMOKE_LADDER = {family: rungs[:1] for family, rungs in LADDER.items()}
#: Each family's churn wrapper replays its second rung (the first in smoke
#: mode) for this many epochs.
DYNAMIC_EPOCHS = 6
SMOKE_EPOCHS = 2
CHURN = dict(drift_rate=1.0, drift_factor_range=(0.5, 1.8), join_rate=0.3,
             leave_rate=0.2, flap_rate=0.2, failure_rate=0.2)


# Builders live at module level so the scenarios pickle by reference into
# the sweep pool's workers.

def _constellation(sites: int, seed: int):
    return generate_constellation(SyntheticSpec(
        sites=sites, seed=seed, clusters_per_site=(2, 2),
        hosts_per_cluster=(3, 3)))


def _wan_grid(rows: int, cols: int, seed: int):
    return generate_wan_grid(WanGridSpec(rows=rows, cols=cols, seed=seed,
                                         hosts_per_site=(4, 4)))


def _fat_tree(pods: int, edges_per_pod: int, hosts_per_edge: int,
              edge_bandwidth_mbps: float):
    return generate_fat_tree(FatTreeSpec(
        pods=pods, edges_per_pod=edges_per_pod, hosts_per_edge=hosts_per_edge,
        edge_bandwidth_mbps=edge_bandwidth_mbps))


def _child_seed(seed: int, name: str) -> int:
    return derive_seed(seed, name) % (2 ** 31)


def _register_rung(family: str, size: Tuple[int, ...], seed: int) -> str:
    name = f"e2e-{family}-" + "x".join(str(n) for n in size)
    child = _child_seed(seed, name)
    if family == "constellation":
        register_scenario(name, family=f"e2e-{family}", sites=size[0],
                          seed=child)(_constellation)
    elif family == "wan-grid":
        register_scenario(name, family=f"e2e-{family}", rows=size[0],
                          cols=size[1], seed=child)(_wan_grid)
    else:
        register_scenario(name, family=f"e2e-{family}", pods=size[0],
                          edges_per_pod=size[1], hosts_per_edge=size[2],
                          edge_bandwidth_mbps=(100.0, 1000.0)[child % 2]
                          )(_fat_tree)
    return name


def register_ladder(seed: int, smoke: bool) -> List[str]:
    """Register the ladder's scenarios (idempotent); their names, in order."""
    ladder = SMOKE_LADDER if smoke else LADDER
    names: List[str] = []
    bases: List[str] = []
    for family, rungs in ladder.items():
        family_names = [_register_rung(family, size, seed) for size in rungs]
        names.extend(family_names)
        bases.append(family_names[min(1, len(family_names) - 1)])
    for base in bases:
        name = "e2e-dyn-" + base[len("e2e-"):]
        register_dynamic_scenario(
            name, base=base, epochs=SMOKE_EPOCHS if smoke else DYNAMIC_EPOCHS,
            seed=_child_seed(seed, name), **CHURN)
        names.append(name)
    return names


# -- the in-process mirror of the pipeline -----------------------------------

def _quality_report(planner: str, plan, platform,
                    diag: Optional[Dict[str, float]]) -> QualityReport:
    """``evaluate_plan`` step by step, one bench span per public call."""
    with TRACER.span("bench.core.check_constraints"):
        constraints = check_constraints(plan, platform)
    periods = measurement_periods(plan)
    with TRACER.span("bench.core.completeness"):
        completeness, direct, aggregated, bw_err, lat_err = \
            completeness_accuracy(plan, platform)
    with TRACER.span("bench.core.harmful_collisions"):
        harmful = harmful_collisions(plan, platform)
    if diag is not None:
        # Diagnostic only: one more scan to count what it compares and
        # reports.  Its time is excluded from the layer sums.
        with TRACER.span("bench.diag.collision_scan"):
            reports = find_collisions(plan, platform)
        sizes = [len(clique.unordered_pairs()) for clique in plan.cliques]
        diag["collision_reports"] += len(reports)
        diag["pairs_compared"] += (sum(sizes) ** 2
                                   - sum(s * s for s in sizes)) // 2
    measured = plan.measured_pairs()
    return QualityReport(
        planner=planner,
        n_hosts=len(plan.hosts),
        n_cliques=len(plan.cliques),
        largest_clique=plan.largest_clique_size(),
        potential_collisions=len(constraints.collisions),
        harmful_collisions=harmful,
        collision_free=constraints.collision_free,
        mean_period_s=(float(np.mean(list(periods.values())))
                       if periods else 0.0),
        worst_period_s=float(max(periods.values())) if periods else 0.0,
        completeness=completeness,
        direct_fraction=direct,
        aggregated_fraction=aggregated,
        bandwidth_error=bw_err,
        latency_error=lat_err,
        measured_pairs=len(measured),
        intrusiveness=constraints.intrusiveness,
        bytes_per_round=2 * 64 * 1024 * len(measured),
    )


def _static_summary(platform, diag: Optional[Dict[str, float]]
                    ) -> Dict[str, object]:
    """``run_pipeline(platform).summary()``, stage by stage."""
    with TRACER.span("bench.env.map"):
        view = map_platform(platform, platform.host_names()[0])
    with TRACER.span("bench.core.plan"):
        plan = plan_from_view(view, period_s=PERIOD_S)
    hosts = sorted(plan.hosts)
    plans = {"env": plan}
    with TRACER.span("bench.core.baselines"):
        for name in DEFAULT_BASELINES:
            plans[name] = BASELINE_PLANNERS[name](platform, hosts)
    reports = [_quality_report(name, p, platform, diag)
               for name, p in plans.items()]
    if diag is not None:
        diag["measurements"] += view.stats.measurements
    return PipelineResult(platform_name=platform.name, master=view.master,
                          n_hosts=len(hosts), view=view, plan=plan,
                          reports=reports).summary()


def inprocess_pass(names: List[str], diag: Optional[Dict[str, float]] = None
                   ) -> Dict[str, Dict[str, object]]:
    """Every ladder scenario's record summary, computed serially here."""
    summaries: Dict[str, Dict[str, object]] = {}
    for name in names:
        scenario = get_scenario(name)
        with TRACER.start_trace("bench.root.platform", scenario=name):
            if isinstance(scenario, DynamicScenario):
                with TRACER.span("bench.dynamics.replay"):
                    summaries[name] = run_replay(
                        scenario, period_s=PERIOD_S).summary()
                continue
            with TRACER.span("bench.netsim.build"):
                platform = scenario.build()
            summaries[name] = _static_summary(platform, diag)
    return summaries


# -- checks ---------------------------------------------------------------------

def comparable(value: object) -> object:
    """A summary without its wall-clock fields."""
    if isinstance(value, dict):
        return {k: comparable(v) for k, v in value.items()
                if k not in ("timings", "remap_s")}
    if isinstance(value, list):
        return [comparable(v) for v in value]
    return value


def check_records(records, reference: Dict[str, Dict[str, object]],
                  tally: harness.Tally) -> None:
    for record in records:
        tally.attempted += 1
        if not tally.check(record.ok, f"{record.scenario}: status "
                                      f"{record.status}"):
            continue
        summary = record.summary or {}
        tally.check(summary.get("completeness") == 1.0,
                    f"{record.scenario}: ENV plan completeness "
                    f"{summary.get('completeness')}")
        tally.check(comparable(summary) == comparable(reference[
            record.scenario]), f"{record.scenario}: pool record differs "
                               "from the in-process computation")


# -- the workload -------------------------------------------------------------------

def _setup(opts) -> Tuple[float, List[str]]:
    """Register the ladder, fork a fresh pool and sweep once untimed.

    Returns the set-up time and the ladder's names, longest record first:
    dealt to two workers in that order, the largest rung never starts last
    while the other worker idles.
    """
    respawn_pool("bench-setup")
    start = time.perf_counter()
    names = register_ladder(opts.seed, opts.smoke)
    warm = run_sweep(names, jobs=JOBS,
                     cache_dir=os.path.join(opts.work, "warm"), rerun=True)
    elapsed = time.perf_counter() - start
    order = sorted(warm.records, key=lambda record: -record.elapsed_s)
    return elapsed, [record.scenario for record in order]


def run(opts, tally: harness.Tally, traced: bool
        ) -> Tuple[Dict[str, float], Dict[str, object]]:
    reps = 1 if opts.smoke or traced else SETUP_REPS
    setups = [_setup(opts) for _ in range(reps)]
    names = setups[-1][1]
    cache = os.path.join(opts.work, "cache")
    if traced:
        return _traced(opts, names, cache, tally)

    records = []
    sweeps: List[harness.Block] = []
    deadline = time.perf_counter() + opts.seconds
    while not sweeps or time.perf_counter() < deadline:
        start = time.perf_counter()
        result = run_sweep(names, jobs=JOBS, cache_dir=cache, rerun=True)
        elapsed = time.perf_counter() - start
        # A sweep returns every record at once: its wall time is the
        # latency its caller sees.
        sweeps.append(harness.Block(seconds=elapsed, latencies=[elapsed]))
        records.extend(result.records)
    respawn_pool("bench-end")         # reaps the workers: their peak RSS
    rss = max(harness.peak_rss_mb(), harness.peak_rss_mb(children=True))
    check_records(records, inprocess_pass(names), tally)

    steady = harness.closed_loop_metrics(sweeps, ops_per_block=len(names))
    metrics = {
        "setup_s": harness.median([elapsed for elapsed, _ in setups]),
        "peak_rss_mb": rss,
        "throughput_per_s": steady["per_s"],
        "latency_p50_ms": steady["p50_ms"],
        "latency_tail_ms": steady["tail_ms"],
    }
    details = {"platforms": len(names), "order": names,
               "sweep_s": [sweep.seconds for sweep in sweeps],
               "record_elapsed_p50_ms": harness.median(
                   [r.elapsed_s for r in records]) * 1e3,
               "setup_reps_s": [elapsed for elapsed, _ in setups],
               "steady": steady,
               "operation": "one sweep of the ladder (throughput counts "
                            "platforms)"}
    return metrics, details


def _task_payloads(names: List[str], records) -> Tuple[int, float]:
    """Bytes and pickle round-trip seconds of one sweep's task traffic."""
    by_name = {r.scenario: r for r in records}
    size = 0
    start = time.perf_counter()
    for name in names:
        args = (get_scenario(name), PERIOD_S, tuple(DEFAULT_BASELINES),
                TaskContext())
        for payload in (args, by_name[name]):
            blob = pickle.dumps(payload)
            pickle.loads(blob)
            size += len(blob)
    return size, time.perf_counter() - start


def _traced(opts, names: List[str], cache: str, tally: harness.Tally
            ) -> Tuple[Dict[str, float], Dict[str, object]]:
    start = time.perf_counter()
    pool = run_sweep(names, jobs=JOBS, cache_dir=cache, rerun=True)
    pool_wall = time.perf_counter() - start
    respawn_pool("bench-end")
    elapsed_total = sum(r.elapsed_s for r in pool.records)
    task_bytes, pickle_s = _task_payloads(names, pool.records)

    # The first in-process pass pays this process' first-call costs; it
    # is the correctness reference, and the timed passes alternate after it.
    untraced = inprocess_pass(names)
    passes = max(1, opts.seconds // 6)
    diag = {"collision_reports": 0, "pairs_compared": 0, "measurements": 0}
    counters = dict.fromkeys(counters_snapshot(), 0)
    untraced_wall = traced_wall = 0.0
    spans: List[Dict[str, object]] = []
    for _ in range(passes):
        start = time.perf_counter()
        inprocess_pass(names)
        untraced_wall += time.perf_counter() - start
        TRACER.configure(sample_rate=1.0)
        before = counters_snapshot()
        start = time.perf_counter()
        with TRACER.capture() as captured:
            traced = inprocess_pass(names, diag)
        traced_wall += time.perf_counter() - start
        TRACER.configure(sample_rate=0.0)
        for key, delta in harness.counter_deltas(
                before, counters_snapshot()).items():
            counters[key] += delta
        spans.extend(captured.spans)

    check_records(pool.records, traced, tally)
    tally.check(comparable(untraced) == comparable(traced),
                "untraced and traced in-process passes differ")

    selfs = {name: total / passes for name, total in
             harness.layer_self_times(spans).items()}
    layer_total = sum(value for name, value in selfs.items()
                      if name.split(".")[1] not in ("root", "diag"))
    lookups = counters["route_cache_hits"] + counters["route_cache_misses"]
    metrics = {
        "netsim.build_s": selfs.get("bench.netsim.build", 0.0),
        "netsim.route_cache_hit_ratio": harness.ratio(
            counters["route_cache_hits"], lookups),
        "netsim.allocations": counters["allocations"] / passes,
        "simkernel.events": counters["events"] / passes,
        "env.map_s": selfs.get("bench.env.map", 0.0),
        "env.measurements": diag["measurements"] / passes,
        "env.probe_memo_hits": counters["probe_memo_hits"] / passes,
        "core.plan_s": selfs.get("bench.core.plan", 0.0),
        "core.baselines_s": selfs.get("bench.core.baselines", 0.0),
        "core.check_constraints_s": selfs.get(
            "bench.core.check_constraints", 0.0),
        "core.harmful_collisions_s": selfs.get(
            "bench.core.harmful_collisions", 0.0),
        "core.completeness_s": selfs.get("bench.core.completeness", 0.0),
        "core.collision_scan_s": selfs.get("bench.diag.collision_scan", 0.0),
        "core.collision_reports": diag["collision_reports"] / passes,
        "core.collision_pairs_compared": diag["pairs_compared"] / passes,
        "core.collision_yield": harness.ratio(diag["collision_reports"],
                                              diag["pairs_compared"]),
        "dynamics.replay_s": selfs.get("bench.dynamics.replay", 0.0),
        "sweep.busy_ratio": elapsed_total / (JOBS * pool_wall),
        "sweep.task_bytes": float(task_bytes),
        "sweep.pickle_s": pickle_s,
        "bench.trace_overhead_ratio": traced_wall / untraced_wall,
        # Against the serial untraced pass over the same platforms: two
        # pool workers on this size of machine inflate each record's
        # elapsed_s (see ``pool_elapsed_over_serial`` in the details).
        "bench.layer_coverage_ratio": layer_total / (untraced_wall / passes),
    }
    details = {"passes": passes, "pool_wall_s": pool_wall,
               "records_elapsed_s": elapsed_total,
               "pool_elapsed_over_serial": elapsed_total / (untraced_wall
                                                            / passes),
               "untraced_pass_s": untraced_wall / passes,
               "traced_pass_s": traced_wall / passes,
               "layer_self_s": selfs, "counters": counters}
    return metrics, details
