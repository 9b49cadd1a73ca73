"""Command-line interface.

``python -m repro.cli <command>`` drives the whole pipeline from a shell,
mirroring how the original tools were used (run ENV, look at the view, derive
the NWS configuration, check its quality):

* ``map``       — run the ENV mapping and print the effective view (optionally
                  writing the GridML document);
* ``plan``      — compute the NWS deployment plan and print the manager
                  configuration file;
* ``quality``   — evaluate the ENV plan against the topology-blind baselines;
* ``monitor``   — deploy the simulated NWS, run it, and print forecasts;
* ``scenarios`` — list the registered evaluation scenarios;
* ``import``    — ingest an external topology file (CAIDA AS-links, edge
                  list, GraphML or GridML) as registered ``imported``
                  scenarios, recorded in a manifest so later invocations
                  still see them;
* ``sweep``     — run map → plan → quality over many scenarios in parallel,
                  with on-disk result caching;
* ``dynamics``  — time-varying platforms: ``list`` the dynamic scenarios,
                  ``replay`` one churn schedule epoch by epoch, or ``run``
                  the whole dynamic family through the sweep engine;
* ``profile``   — profile one scenario's pipeline run (or dynamic replay):
                  cProfile hotspots by default, ``--flame`` switches to the
                  sampling profiler's collapsed (flamegraph-ready) stacks;
* ``serve``     — the async results/scenario HTTP API (:mod:`repro.serve`):
                  browse the catalog, query the indexed result store, and
                  submit pipeline runs over HTTP;
* ``trace``     — render the traces of a JSONL span log as ASCII
                  timelines (per-stage durations, perf-counter deltas),
                  or export them as a Chrome-trace document for Perfetto
                  (``--format chrome``);
* ``obs``       — trace analytics over a span log: ``report`` (per-op
                  p50/p95/p99 + self time, critical paths, SLO verdicts)
                  and ``diff`` (attribute the latency delta between two
                  logs to specific ops).

Every subcommand takes the observability flags ``--log-level`` (structured
key=value logging), ``--trace-sample`` (span sampling rate; ``serve``
defaults to 1.0, everything else to 0), ``--trace-log`` (JSONL span log),
``--trace-log-max-mb`` (size-capped ``.1`` rotation) and ``--slow-span``
(warn threshold).

The platform of the single-run commands is either the paper's ENS-Lyon LAN
(``--platform ens-lyon``, default) or a seeded synthetic constellation
(``--platform synthetic``); ``sweep`` draws its platforms from the scenario
registry (:mod:`repro.scenarios`).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, List, Optional, Tuple

from .analysis import render_env_tree, render_plan, render_table
from .core import plan_from_view, render_config
from .dynamics import list_dynamic_scenarios, run_replay
from .env import map_ens_lyon, map_platform
from .faults import install_plan, load_plan
from .gridml import write_gridml
from .ioutils import write_atomic
from .ingest import (
    DEFAULT_MANIFEST,
    DEFAULT_SIZES,
    FORMATS,
    load_manifest,
    load_recorded_imports,
    manifest_entries,
    record_import,
    register_imported,
    register_imported_dynamic,
    same_source,
)
from .netsim import SyntheticSpec, build_ens_lyon, generate_constellation
from .nws import NWSClient, NWSSystem
from .obs import (
    TRACER,
    group_traces,
    load_span_log,
    render_timeline,
    setup_logging,
)
from .obs.timeline import find_orphans
from .pipeline import BASELINE_PLANNERS, run_pipeline
from .scenarios import list_scenarios
from .serve import ReproApp, catalog_json, run_server
from .sweep import (
    DEFAULT_CACHE_DIR,
    DEFAULT_RETRIES,
    DEFAULT_TASK_DEADLINE_S,
    records_json,
    run_sweep,
)

__all__ = ["main", "build_parser"]


def _build_platform(args: argparse.Namespace):
    if args.platform == "ens-lyon":
        return build_ens_lyon()
    spec = SyntheticSpec(sites=args.sites, seed=args.seed)
    return generate_constellation(spec)


def _map_view(platform, args: argparse.Namespace):
    if args.platform == "ens-lyon":
        return map_ens_lyon(platform, master=args.master or "the-doors")
    master = args.master or platform.host_names()[0]
    return map_platform(platform, master)


def _add_forecast_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--forecast-window", type=int, default=10,
                        metavar="N",
                        help="sliding window of the windowed forecasters "
                             "(default: 10)")
    parser.add_argument("--forecast-alpha", type=float, default=0.3,
                        metavar="A",
                        help="smoothing factor of the exponential forecaster "
                             "(default: 0.3)")


def _add_sweep_arguments(parser: argparse.ArgumentParser) -> None:
    """Options shared by ``sweep`` and ``dynamics run``."""
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes (default: 1)")
    parser.add_argument("--filter", default=None, metavar="PATTERN",
                        help="substring filter on name/family/tags")
    parser.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR,
                        help=f"result cache directory (default: "
                             f"{DEFAULT_CACHE_DIR})")
    parser.add_argument("--rerun", action="store_true",
                        help="ignore cached results and re-run everything")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="JSONL result store "
                             "(default: <cache-dir>/results.jsonl)")
    parser.add_argument("--period", type=float, default=60.0,
                        help="target measurement period per clique (seconds)")
    parser.add_argument("--format", choices=("table", "json"),
                        default="table",
                        help="summary output format (default: table)")
    parser.add_argument("--retries", type=int, default=DEFAULT_RETRIES,
                        help="extra attempts per scenario after an "
                             "infrastructure failure (dead worker, crash, "
                             f"deadline; default: {DEFAULT_RETRIES})")
    parser.add_argument("--task-deadline", type=float,
                        default=DEFAULT_TASK_DEADLINE_S, metavar="SECONDS",
                        help="per-task wall-clock deadline; past it the "
                             "worker pool is respawned and the task retried "
                             f"(default: {DEFAULT_TASK_DEADLINE_S:g})")
    _add_fault_argument(parser)


def _add_fault_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--inject-faults", default=None, metavar="PLAN",
                        help="fault-injection plan: a JSON literal or a "
                             "path to a JSON file (see repro.faults; "
                             "deterministic chaos testing)")


def _install_faults(args: argparse.Namespace) -> None:
    """Install the ``--inject-faults`` plan (if any) for this process tree."""
    if getattr(args, "inject_faults", None):
        install_plan(load_plan(args.inject_faults))


def _add_observability_arguments(parser: argparse.ArgumentParser,
                                 sample_default: float = 0.0) -> None:
    """The observability flags every subcommand carries."""
    group = parser.add_argument_group("observability")
    group.add_argument("--log-level", default="warning",
                       choices=("debug", "info", "warning", "error",
                                "critical"),
                       help="structured key=value log verbosity "
                            "(default: warning)")
    group.add_argument("--trace-sample", type=float, default=sample_default,
                       metavar="RATE",
                       help="fraction of root operations to trace, 0..1 "
                            f"(default: {sample_default:g})")
    group.add_argument("--trace-log", default=None, metavar="PATH",
                       help="append finished spans to this JSONL span log "
                            "(render with 'repro trace PATH')")
    group.add_argument("--trace-log-max-mb", type=float, default=64.0,
                       metavar="MB",
                       help="rotate the span log to a .1 sibling once it "
                            "reaches this size (0 = unbounded; default: 64)")
    group.add_argument("--slow-span", type=float, default=0.0,
                       metavar="SECONDS",
                       help="warn about spans slower than this "
                            "(0 disables; default: 0)")


def _add_platform_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--platform", choices=("ens-lyon", "synthetic"),
                        default="ens-lyon",
                        help="platform to operate on (default: ens-lyon)")
    parser.add_argument("--master", default=None,
                        help="ENV master host (default: the-doors / first host)")
    parser.add_argument("--sites", type=int, default=2,
                        help="synthetic platform: number of sites")
    parser.add_argument("--seed", type=int, default=0,
                        help="synthetic platform: generator seed")


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser of the ``repro`` command."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Automatic NWS deployment from the Effective Network View",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_map = sub.add_parser("map", help="run the ENV mapping and print the view")
    _add_platform_arguments(p_map)
    _add_observability_arguments(p_map)
    p_map.add_argument("--gridml", default=None,
                       help="write the GridML document to this path")

    p_plan = sub.add_parser("plan", help="compute the NWS deployment plan")
    _add_platform_arguments(p_plan)
    _add_observability_arguments(p_plan)
    p_plan.add_argument("--period", type=float, default=60.0,
                        help="target measurement period per clique (seconds)")
    p_plan.add_argument("--config-out", default=None,
                        help="write the manager configuration file to this path")

    p_quality = sub.add_parser("quality",
                               help="compare the ENV plan with baseline plans")
    _add_platform_arguments(p_quality)
    _add_observability_arguments(p_quality)

    p_monitor = sub.add_parser("monitor",
                               help="deploy the simulated NWS and query it")
    _add_platform_arguments(p_monitor)
    _add_observability_arguments(p_monitor)
    p_monitor.add_argument("--duration", type=float, default=300.0,
                           help="simulated monitoring duration (seconds)")
    p_monitor.add_argument("--pairs", nargs="*", default=[],
                           metavar="SRC:DST",
                           help="host pairs to query (default: a small sample)")
    _add_forecast_arguments(p_monitor)

    p_scenarios = sub.add_parser(
        "scenarios", help="list the registered evaluation scenarios")
    p_scenarios.add_argument("--filter", default=None, metavar="PATTERN",
                             help="substring filter on name/family/tags")
    p_scenarios.add_argument("--family", default=None,
                             help="exact family filter (e.g. 'imported')")
    p_scenarios.add_argument("--format", choices=("table", "json"),
                             default="table",
                             help="output format; json matches the "
                                  "GET /scenarios API schema "
                                  "(default: table)")
    _add_observability_arguments(p_scenarios)

    p_import = sub.add_parser(
        "import", help="ingest a topology file as 'imported' scenarios")
    p_import.add_argument("path", help="topology file (CAIDA AS-links, "
                                       "edge list, GraphML or GridML; "
                                       ".gz accepted)")
    p_import.add_argument("--format", choices=FORMATS, default=None,
                          help="source format (default: detect from "
                               "extension/content)")
    p_import.add_argument("--sizes", type=int, nargs="+",
                          default=list(DEFAULT_SIZES), metavar="HOSTS",
                          help="target host counts, one scenario each "
                               f"(default: {' '.join(map(str, DEFAULT_SIZES))}"
                               "; ignored for gridml)")
    p_import.add_argument("--seed", type=int, default=0,
                          help="sampling/annotation seed (default: 0)")
    p_import.add_argument("--strategy", choices=("bfs", "degree"),
                          default="bfs",
                          help="subgraph sampling strategy (default: bfs)")
    p_import.add_argument("--name", default=None, metavar="STEM",
                          help="scenario name stem (default: the file's "
                               "basename; needed when two imported files "
                               "share one)")
    p_import.add_argument("--tag", action="append", default=[],
                          metavar="TAG", help="extra scenario tag "
                                              "(repeatable)")
    p_import.add_argument("--dynamic", action="store_true",
                          help="also register dyn- churn wrappers "
                               "(drift replays)")
    p_import.add_argument("--epochs", type=int, default=6,
                          help="epochs of the dynamic wrappers (default: 6)")
    p_import.add_argument("--manifest",
                          default=os.environ.get("REPRO_IMPORTS",
                                                 DEFAULT_MANIFEST),
                          help="manifest recording imports for later "
                               "invocations (default: $REPRO_IMPORTS or "
                               f"{DEFAULT_MANIFEST})")
    p_import.add_argument("--no-save", action="store_true",
                          help="register for this invocation only "
                               "(do not touch the manifest)")
    p_import.add_argument("--sweep", action="store_true",
                          help="immediately sweep the imported scenarios")
    p_import.add_argument("--jobs", type=int, default=1,
                          help="worker processes for --sweep (default: 1)")
    p_import.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR,
                          help=f"sweep cache for --sweep (default: "
                               f"{DEFAULT_CACHE_DIR})")
    p_import.add_argument("--rerun", action="store_true",
                          help="with --sweep: ignore cached results")
    _add_observability_arguments(p_import)

    p_sweep = sub.add_parser(
        "sweep", help="run map → plan → quality over many scenarios")
    _add_sweep_arguments(p_sweep)
    _add_observability_arguments(p_sweep)
    p_sweep.add_argument("--baselines", nargs="*", default=None,
                         choices=sorted(BASELINE_PLANNERS),
                         help="baseline planners to evaluate per scenario "
                              "(static scenarios only; dynamic replays "
                              "have no baseline stage)")

    p_dynamics = sub.add_parser(
        "dynamics", help="time-varying platforms: replay churn schedules")
    dyn_sub = p_dynamics.add_subparsers(dest="dynamics_command", required=True)

    d_list = dyn_sub.add_parser("list", help="list the dynamic scenarios")
    d_list.add_argument("--filter", default=None, metavar="PATTERN",
                        help="substring filter on name/family/tags")
    d_list.add_argument("--format", choices=("table", "json"),
                        default="table",
                        help="output format; json matches the "
                             "GET /scenarios API schema (default: table)")
    _add_observability_arguments(d_list)

    d_replay = dyn_sub.add_parser(
        "replay", help="replay one dynamic scenario epoch by epoch")
    d_replay.add_argument("--scenario", required=True,
                          help="name of a registered dynamic scenario")
    d_replay.add_argument("--epochs", type=int, default=None,
                          help="override the scenario's schedule length")
    d_replay.add_argument("--period", type=float, default=60.0,
                          help="target measurement period per clique (seconds)")
    d_replay.add_argument("--drift-threshold", type=float, default=0.25,
                          help="relative forecast deviation that flags drift "
                               "(default: 0.25)")
    d_replay.add_argument("--oracle", action="store_true",
                          help="also run the full-remap-every-epoch oracle "
                               "track and report the cost/quality comparison")
    _add_forecast_arguments(d_replay)
    _add_observability_arguments(d_replay)

    d_run = dyn_sub.add_parser(
        "run", help="sweep every dynamic scenario (cached, epoch-aware)")
    _add_sweep_arguments(d_run)
    _add_observability_arguments(d_run)

    p_serve = sub.add_parser(
        "serve", help="serve the results/scenario HTTP API")
    p_serve.add_argument("--host", default="127.0.0.1",
                         help="bind address (default: 127.0.0.1)")
    p_serve.add_argument("--port", type=int, default=8765,
                         help="TCP port; 0 binds an ephemeral one "
                              "(default: 8765)")
    p_serve.add_argument("--jobs", type=int, default=2,
                         help="worker processes of the shared run pool "
                              "(default: 2)")
    p_serve.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR,
                         help=f"sweep cache / result store directory "
                              f"(default: {DEFAULT_CACHE_DIR})")
    p_serve.add_argument("--out", default=None, metavar="PATH",
                         help="JSONL result store "
                              "(default: <cache-dir>/results.jsonl)")
    p_serve.add_argument("--queue-size", type=int, default=32,
                         help="max pending jobs before POST /runs returns "
                              "503 (default: 32)")
    p_serve.add_argument("--job-timeout", type=float, default=600.0,
                         metavar="SECONDS",
                         help="per-attempt wall-clock deadline of a job; "
                              "past it the worker is killed, the pool "
                              "respawned and the attempt retried within "
                              "--job-retries; a job whose last attempt "
                              "timed out ends 'timeout' (default: 600)")
    p_serve.add_argument("--job-retries", type=int, default=1,
                         help="extra attempts per job after an attempt is "
                              "lost to a dead worker, a crash or the "
                              "--job-timeout deadline (default: 1)")
    p_serve.add_argument("--breaker-threshold", type=int, default=5,
                         help="consecutive failures of one scenario that "
                              "open its circuit breaker (default: 5)")
    p_serve.add_argument("--breaker-cooldown", type=float, default=30.0,
                         metavar="SECONDS",
                         help="open-breaker cooldown before a half-open "
                              "probe is allowed (default: 30)")
    p_serve.add_argument("--drain-timeout", type=float, default=10.0,
                         metavar="SECONDS",
                         help="SIGTERM graceful-drain budget for in-flight "
                              "jobs (default: 10)")
    p_serve.add_argument("--flight-dir", default=None, metavar="DIR",
                         help="arm the flight recorder: dump forensics "
                              "bundles (spans, metrics history, health) to "
                              "DIR on SLO breach, breaker open, persist "
                              "fallback, SIGTERM or POST /debug/dump "
                              "(default: disabled)")
    p_serve.add_argument("--history-interval", type=float, default=5.0,
                         metavar="SECONDS",
                         help="metrics-history snapshot interval backing "
                              "GET /metrics/history (default: 5)")
    _add_fault_argument(p_serve)
    # The server defaults to tracing every request: its spans are the point
    # of GET /trace/{id}, and the overhead benchmark bounds the cost.
    _add_observability_arguments(p_serve, sample_default=1.0)

    p_profile = sub.add_parser(
        "profile", help="profile one scenario run and print the hotspots")
    p_profile.add_argument("scenario",
                           help="name of a registered (static or dynamic) "
                                "scenario")
    p_profile.add_argument("--top", type=int, default=20, metavar="N",
                           help="number of hotspot rows to print (default: 20)")
    p_profile.add_argument("--sort", choices=("cumulative", "tottime"),
                           default="cumulative",
                           help="pstats sort order (default: cumulative)")
    p_profile.add_argument("--period", type=float, default=60.0,
                           help="target measurement period per clique (seconds)")
    p_profile.add_argument("--flame", action="store_true",
                           help="use the sampling profiler and print "
                                "collapsed (flamegraph-ready) stacks instead "
                                "of cProfile hotspots")
    p_profile.add_argument("--flame-out", default=None, metavar="PATH",
                           help="with --flame: write the full collapsed "
                                "stacks to PATH (feed to flamegraph.pl)")
    p_profile.add_argument("--hz", type=int, default=100, metavar="HZ",
                           help="with --flame: sampling frequency "
                                "(default: 100)")
    _add_observability_arguments(p_profile)

    p_trace = sub.add_parser(
        "trace", help="render span-log traces as ASCII timelines")
    p_trace.add_argument("source", metavar="SPAN_LOG",
                        help="JSONL span log written via --trace-log")
    p_trace.add_argument("--trace-id", default=None, metavar="ID",
                         help="render only this trace")
    p_trace.add_argument("--limit", type=int, default=10, metavar="N",
                         help="most recent traces to render (default: 10)")
    p_trace.add_argument("--format", choices=("ascii", "chrome"),
                         default="ascii",
                         help="ascii timelines, or a Chrome-trace JSON "
                              "document loadable in Perfetto / "
                              "chrome://tracing (default: ascii)")
    p_trace.add_argument("--out", default=None, metavar="PATH",
                         help="with --format chrome: write the trace "
                              "document to PATH instead of stdout")
    _add_observability_arguments(p_trace)

    p_obs = sub.add_parser(
        "obs", help="trace analytics: op latency report, critical paths, "
                    "SLO verdicts, span-log diffs")
    obs_sub = p_obs.add_subparsers(dest="obs_command", required=True)
    o_report = obs_sub.add_parser(
        "report", help="per-op p50/p95/p99 + self time, critical paths and "
                       "SLO verdicts for a span log")
    o_report.add_argument("source", metavar="SPAN_LOG",
                          help="JSONL span log written via --trace-log")
    o_report.add_argument("--top", type=int, default=15, metavar="N",
                          help="op rows to print (default: 15)")
    o_report.add_argument("--critical-paths", type=int, default=1,
                          metavar="N",
                          help="critical paths of the N most recent traces "
                               "(0 disables; default: 1)")
    o_report.add_argument("--slo", action="append", default=[],
                          metavar="OP:MS[:TARGET]",
                          help="grade span op OP against a latency "
                               "threshold of MS milliseconds at TARGET "
                               "compliance (default target 0.99); "
                               "repeatable, replaces the built-in SLOs")
    o_report.add_argument("--format", choices=("table", "json"),
                          default="table",
                          help="output format (default: table)")
    _add_observability_arguments(o_report)
    o_diff = obs_sub.add_parser(
        "diff", help="attribute the latency delta between two span logs "
                     "to specific ops")
    o_diff.add_argument("before", metavar="BEFORE_LOG",
                        help="baseline JSONL span log")
    o_diff.add_argument("after", metavar="AFTER_LOG",
                        help="candidate JSONL span log")
    o_diff.add_argument("--top", type=int, default=15, metavar="N",
                        help="delta rows to print (default: 15)")
    _add_observability_arguments(o_diff)

    p_check = sub.add_parser(
        "check", help="static AST checks: determinism, version-bump, "
                      "atomic-write, async-safety, silent-except, "
                      "pool-boundary invariants")
    p_check.add_argument("--root", default=None, metavar="DIR",
                         help="source tree to scan (default: the installed "
                              "repro package)")
    p_check.add_argument("--format", choices=("text", "json"),
                         default="text",
                         help="report format (default: text)")
    p_check.add_argument("--baseline", default=None, metavar="FILE",
                         help="baseline JSON of grandfathered findings "
                              "(default: check_baseline.json at the repo "
                              "root, if present)")
    p_check.add_argument("--update-baseline", action="store_true",
                         help="rewrite the baseline to grandfather every "
                              "current finding, then exit 0")
    _add_observability_arguments(p_check)
    return parser


def _cmd_map(args: argparse.Namespace) -> int:
    platform = _build_platform(args)
    view = _map_view(platform, args)
    print(render_env_tree(view.root))
    print(f"\nprobing effort: {view.stats.measurements} measurements, "
          f"{view.stats.bytes_injected / 1e6:.0f} MB injected, "
          f"{view.stats.traceroutes} traceroutes")
    if args.gridml:
        write_gridml(view.to_gridml(), args.gridml)
        print(f"GridML written to {args.gridml}")
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    platform = _build_platform(args)
    view = _map_view(platform, args)
    plan = plan_from_view(view, period_s=args.period)
    print(render_plan(plan))
    print()
    config_text = render_config(plan)
    print(config_text)
    if args.config_out:
        write_atomic(args.config_out, config_text)
        print(f"configuration written to {args.config_out}")
    return 0


def _cmd_quality(args: argparse.Namespace) -> int:
    platform = _build_platform(args)
    result = run_pipeline(platform, mapper=lambda p: _map_view(p, args))
    print(render_table([r.as_row() for r in result.reports]))
    return 0


def _parse_pairs(raw: List[str]) -> List[Tuple[str, str]]:
    pairs = []
    for item in raw:
        if ":" not in item:
            raise ValueError(f"pair {item!r} must be SRC:DST")
        src, dst = item.split(":", 1)
        pairs.append((src, dst))
    return pairs


def _cmd_monitor(args: argparse.Namespace) -> int:
    platform = _build_platform(args)
    result = run_pipeline(platform, period_s=20.0, baselines=(),
                          mapper=lambda p: _map_view(p, args),
                          forecast_window=args.forecast_window,
                          forecast_alpha=args.forecast_alpha,
                          evaluate=False)
    system = NWSSystem(platform, result.plan, config=result.nws_config())
    system.run(args.duration)
    client = NWSClient(system)
    pairs = _parse_pairs(args.pairs)
    if not pairs:
        hosts = sorted(result.plan.hosts)
        pairs = [(hosts[0], h) for h in hosts[1:4]]
    rows = []
    for src, dst in pairs:
        answer = client.bandwidth(src, dst)
        rows.append({
            "src": src, "dst": dst,
            "bandwidth (Mbit/s)": (round(answer.forecast.value, 1)
                                   if answer.available else "n/a"),
            "answered by": answer.method,
        })
    print(f"monitored for {args.duration:g} simulated seconds; "
          f"experiments per clique: {system.measurement_counts()}")
    print(render_table(rows))
    return 0


def _cmd_scenarios(args: argparse.Namespace) -> int:
    scenarios = list_scenarios(args.filter, family=args.family)
    if args.format == "json":
        # The exact document GET /scenarios serves for the same filters —
        # including the empty match, which stays a valid count-0 document
        # (the exit status still signals it, as in table mode).
        print(catalog_json(scenarios))
        return 0 if scenarios else 1
    if not scenarios:
        wanted = args.filter if args.family is None else \
            f"{args.filter or ''} (family {args.family})".strip()
        print(f"no scenarios match {wanted!r}")
        return 1
    rows = [{
        "scenario": s.name,
        "family": s.family,
        "tags": ",".join(s.tags) or "-",
        "hash": s.content_hash[:12],
        "params": ", ".join(f"{k}={v}" for k, v in s.params) or "-",
        "description": s.description,
    } for s in scenarios]
    print(render_table(rows))
    print(f"\n{len(scenarios)} scenarios registered")
    return 0


def _print_sweep_result(result, jobs: int, output_format: str) -> int:
    """Render one sweep outcome; non-zero exit when any record errored."""
    if output_format == "json":
        print(records_json(result.records))
    else:
        print(result.summary_table())
        print(f"\nswept {len(result.records)} scenarios in "
              f"{result.elapsed_s:.2f}s with {jobs} job(s); "
              f"{result.cache_hits} served from cache")
        print(f"results appended to {result.out_path}")
    for record in result.errors:
        print(f"\nerror in scenario {record.scenario}:\n{record.error}",
              file=sys.stderr)
    return 1 if result.errors else 0


def _cmd_import(args: argparse.Namespace) -> int:
    path = args.path
    if not args.no_save and os.path.exists(args.manifest):
        # A re-import of an already-recorded source keeps the recorded path
        # spelling: the spelling is a scenario parameter, so a respelling
        # would change content hashes and orphan the existing sweep cache.
        recorded = next(
            (e["path"] for e in manifest_entries(args.manifest)
             if e.get("path") and same_source(e["path"], args.path)), None)
        path = recorded or args.path
        # Re-register the other recorded imports first, so a scenario-name
        # collision with an earlier import fails *now* (exit 2, nothing
        # recorded) instead of silently recording an entry that every later
        # invocation skips with a warning.
        load_manifest(args.manifest, exclude_path=path)
    scenarios = register_imported(path, format=args.format,
                                  sizes=tuple(args.sizes), seed=args.seed,
                                  strategy=args.strategy,
                                  tags=tuple(args.tag), name=args.name)
    if args.dynamic:
        scenarios = scenarios + register_imported_dynamic(
            scenarios, epochs=args.epochs)
    names = [s.name for s in scenarios]
    rows = [{
        "scenario": s.name,
        "family": s.family,
        "tags": ",".join(s.tags) or "-",
        "hash": s.content_hash[:12],
        "hosts": s.param_dict.get("hosts", "-"),
        "description": s.description,
    } for s in scenarios]
    print(render_table(rows))
    print(f"\nregistered {len(names)} scenarios from {args.path}")
    if not args.no_save:
        record_import({
            # The path spelling actually *registered* (a re-import under a
            # new spelling keeps the first registration, and the recorded
            # path must match it or hashes would drift across processes and
            # orphan the sweep cache) plus the resolved format, so later
            # loads skip re-sniffing.
            "path": scenarios[0].param_dict["path"],
            "format": scenarios[0].param_dict.get("format", "gridml"),
            "sizes": list(args.sizes),
            "seed": args.seed,
            "strategy": args.strategy,
            "name": args.name,
            "tags": list(args.tag),
            "dynamic": bool(args.dynamic),
            "epochs": args.epochs,
            "digest": scenarios[0].param_dict["digest"],
        }, manifest_path=args.manifest)
        if args.manifest == DEFAULT_MANIFEST:
            print(f"recorded in {args.manifest} "
                  "(later invocations re-register automatically)")
        else:
            print(f"recorded in {args.manifest} (set "
                  f"REPRO_IMPORTS={args.manifest} so later invocations "
                  "re-register automatically)")
    if args.sweep:
        result = run_sweep(names=names, jobs=args.jobs,
                           cache_dir=args.cache_dir, rerun=args.rerun)
        print()
        return _print_sweep_result(result, args.jobs, "table")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    _install_faults(args)
    kwargs = {}
    if args.baselines is not None:
        kwargs["baselines"] = tuple(args.baselines)
    result = run_sweep(pattern=args.filter, jobs=args.jobs,
                       cache_dir=args.cache_dir, rerun=args.rerun,
                       out_path=args.out, period_s=args.period,
                       retries=args.retries,
                       task_deadline_s=args.task_deadline, **kwargs)
    return _print_sweep_result(result, args.jobs, args.format)


def _cmd_dynamics(args: argparse.Namespace) -> int:
    if args.dynamics_command == "list":
        scenarios = list_dynamic_scenarios(args.filter)
        if args.format == "json":
            # Same schema as GET /scenarios, restricted to the dynamic
            # family; an empty match is a valid count-0 document.
            print(catalog_json(scenarios))
            return 0 if scenarios else 1
        if not scenarios:
            print(f"no dynamic scenarios match {args.filter!r}")
            return 1
        rows = [{
            "scenario": s.name,
            "base": s.base,
            "tags": ",".join(s.tags) or "-",
            "epochs": s.param_dict.get("epochs", ""),
            "hash": s.content_hash[:12],
            "description": s.description,
        } for s in scenarios]
        print(render_table(rows))
        print(f"\n{len(scenarios)} dynamic scenarios registered")
        return 0

    if args.dynamics_command == "replay":
        result = run_replay(args.scenario, epochs=args.epochs,
                            period_s=args.period,
                            forecast_window=args.forecast_window,
                            forecast_alpha=args.forecast_alpha,
                            drift_threshold=args.drift_threshold,
                            oracle=args.oracle)
        print(render_table([r.as_row() for r in result.records]))
        counts = result.remap_counts
        print(f"\nreplayed {args.scenario} (base {result.base}, master "
              f"{result.master}) over {len(result.records)} epochs in "
              f"{result.elapsed_s:.2f}s")
        print(f"remaps: {counts.get('incremental', 0)} incremental, "
              f"{counts.get('full', 0)} full, {counts.get('none', 0)} quiet; "
              f"mean plan stability {result.mean_stability:.3f}")
        print(f"maintenance cost: {result.remap_measurements} measurements "
              f"(bootstrap mapping: {result.bootstrap_measurements})")
        if args.oracle and result.oracle_measurements:
            gaps = result.quality_gaps()
            remap_only = sum(r.remap_measurements for r in result.records)
            monitor_only = result.remap_measurements - remap_only
            print(f"oracle (full remap every epoch): "
                  f"{result.oracle_measurements} measurements vs "
                  f"{remap_only} incremental remap probes "
                  f"({result.oracle_measurements / max(remap_only, 1):.1f}x) "
                  f"+ {monitor_only} monitoring probes (piggyback on the "
                  f"deployment's own measurement rounds)")
            print(f"quality gap vs oracle: "
                  f"completeness {gaps['completeness']:.4f}, "
                  f"bw_err {gaps['bandwidth_error']:.4f}")
        return 0

    # "run": the dynamic family through the sweep engine (epoch-aware records)
    _install_faults(args)
    names = [s.name for s in list_dynamic_scenarios(args.filter)]
    if not names:
        print(f"no dynamic scenarios match {args.filter!r}", file=sys.stderr)
        return 1
    result = run_sweep(names=names, jobs=args.jobs, cache_dir=args.cache_dir,
                       rerun=args.rerun, out_path=args.out,
                       period_s=args.period, retries=args.retries,
                       task_deadline_s=args.task_deadline)
    return _print_sweep_result(result, args.jobs, args.format)


def _cmd_profile(args: argparse.Namespace) -> int:
    """Profile one pipeline run (or replay) of a registered scenario.

    Deterministic cProfile hotspots by default; ``--flame`` switches to
    the sampling profiler (:mod:`repro.obs.profile`) and prints collapsed
    flamegraph-ready stacks instead.
    """
    import time

    from .dynamics import DynamicScenario
    from .scenarios import get_scenario

    scenario = get_scenario(args.scenario)
    if args.flame:
        return _profile_flame(args, scenario)
    import cProfile
    import io
    import pstats

    profiler = cProfile.Profile()
    start = time.perf_counter()
    profiler.enable()
    if isinstance(scenario, DynamicScenario):
        run_replay(scenario, period_s=args.period)
        kind = "dynamic replay"
    else:
        run_pipeline(scenario.build(), period_s=args.period)
        kind = "pipeline run"
    profiler.disable()
    elapsed = time.perf_counter() - start
    print(f"profiled one {kind} of {scenario.name} in {elapsed:.3f}s; "
          f"top {args.top} by {args.sort}:")
    buffer = io.StringIO()
    stats = pstats.Stats(profiler, stream=buffer)
    stats.strip_dirs().sort_stats(args.sort).print_stats(args.top)
    print(buffer.getvalue().rstrip())
    return 0


def _profile_flame(args: argparse.Namespace, scenario) -> int:
    """The ``--flame`` arm of ``repro profile``: sample, collapse, print."""
    import time

    from .dynamics import DynamicScenario
    from .obs.profile import PROFILER

    start = time.perf_counter()
    with PROFILER.profiled(hz=args.hz) as capture:
        if isinstance(scenario, DynamicScenario):
            run_replay(scenario, period_s=args.period)
            kind = "dynamic replay"
        else:
            run_pipeline(scenario.build(), period_s=args.period)
            kind = "pipeline run"
    elapsed = time.perf_counter() - start
    collapsed = capture.collapsed()
    print(f"profiled one {kind} of {scenario.name} in {elapsed:.3f}s: "
          f"{capture.samples} samples at {args.hz} Hz "
          f"({PROFILER.mode or 'signal'} backend)")
    if args.flame_out:
        write_atomic(args.flame_out, collapsed)
        print(f"collapsed stacks written to {args.flame_out} "
              f"(feed to flamegraph.pl)")
    lines = collapsed.splitlines()
    shown = lines[:args.top]
    if shown:
        print(f"top {len(shown)} stacks (of {len(lines)}):")
        for line in shown:
            print(f"  {line}")
    else:
        print("no samples captured (run too short? raise --hz or --period)")
    return 0


def _load_spans_or_fail(path: str) -> Optional[List[Dict[str, object]]]:
    """Load a span log for an analysis command; ``None`` means *already
    diagnosed* — the caller just exits 1.

    A missing or empty span log is an operator mistake (wrong path, or the
    traced run never sampled), not an internal error, so it gets a pointed
    diagnostic and exit 1 rather than the generic ``error:`` exit 2.
    """
    try:
        spans = load_span_log(path)
    except OSError as exc:
        print(f"cannot read span log {path!r}: {exc}\n"
              f"(produce one with: repro <command> --trace-sample 1.0 "
              f"--trace-log {path})", file=sys.stderr)
        return None
    if not spans:
        print(f"no spans in {path}: the log exists but holds no span "
              f"records\n(was the producing run started with "
              f"--trace-sample 0? rerun with --trace-sample 1.0)",
              file=sys.stderr)
        return None
    return spans


def _cmd_trace(args: argparse.Namespace) -> int:
    """Render the traces of a JSONL span log as ASCII timelines."""
    spans = _load_spans_or_fail(args.source)
    if spans is None:
        return 1
    if args.format == "chrome":
        from .obs.export import chrome_trace_json

        if args.trace_id is not None:
            spans = [s for s in spans
                     if s.get("trace_id") == args.trace_id]
            if not spans:
                print(f"no spans for trace {args.trace_id!r} in "
                      f"{args.source}", file=sys.stderr)
                return 1
        document = chrome_trace_json(spans)
        if args.out:
            write_atomic(args.out, document)
            print(f"wrote {len(spans)} span(s) as Chrome trace events to "
                  f"{args.out} (open in Perfetto or chrome://tracing)",
                  file=sys.stderr)
        else:
            print(document, end="")
        return 0
    if args.trace_id is not None:
        selected = [s for s in spans if s.get("trace_id") == args.trace_id]
        if not selected:
            print(f"no spans for trace {args.trace_id!r} in {args.source}",
                  file=sys.stderr)
            return 1
        print(render_timeline(selected, trace_id=args.trace_id))
        orphans = find_orphans(selected)
        if orphans:
            print(f"warning: {len(orphans)} orphaned span(s) in trace "
                  f"{args.trace_id}: parents missing from the log (ring "
                  f"buffer wrapped, unshipped worker spans, or mid-trace "
                  f"rotation)", file=sys.stderr)
            return 1
        return 0
    if args.limit < 1:
        raise ValueError("--limit must be >= 1")
    groups = group_traces(spans)
    shown = list(groups.items())[-args.limit:]
    for index, (trace_id, trace_spans) in enumerate(shown):
        if index:
            print()
        print(render_timeline(trace_spans, trace_id=trace_id))
    if len(groups) > len(shown):
        print(f"\n({len(groups) - len(shown)} older trace(s) not shown; "
              f"raise --limit or pass --trace-id)")
    orphans = find_orphans(spans)
    if orphans:
        names = sorted({str(s.get("name", "?")) for s in orphans})
        print(f"warning: {len(orphans)} orphaned span(s) reference parents "
              f"missing from {args.source} (ops: {', '.join(names[:5])}): "
              f"the log is incomplete — the ring buffer wrapped, a worker's "
              f"spans were never shipped, or the log rotated mid-trace",
              file=sys.stderr)
        return 1
    return 0


def _parse_slo_spec(spec: str):
    """``OP:MS[:TARGET]`` → an :class:`~repro.obs.slo.SLO` over span op OP."""
    from .obs.slo import SLO

    parts = spec.split(":")
    if len(parts) not in (2, 3):
        raise ValueError(f"bad --slo spec {spec!r}: expected OP:MS[:TARGET]")
    op = parts[0].strip()
    if not op:
        raise ValueError(f"bad --slo spec {spec!r}: empty op")
    threshold_ms = float(parts[1])
    target = float(parts[2]) if len(parts) == 3 else 0.99
    if threshold_ms <= 0:
        raise ValueError(f"bad --slo spec {spec!r}: MS must be positive")
    if not 0.0 < target < 1.0:
        raise ValueError(f"bad --slo spec {spec!r}: TARGET must be in (0, 1)")
    return SLO(name=f"{op}-latency", kind="latency", target=target,
               threshold_s=threshold_ms / 1e3, span_op=op,
               description=f"{op} under {threshold_ms:g} ms "
                           f"for {target:.2%} of spans")


def _cmd_obs(args: argparse.Namespace) -> int:
    """Trace analytics over span logs: ``report`` and ``diff``."""
    from .obs.analyze import aggregate_ops, critical_path, diff_traces
    from .obs.slo import DEFAULT_SLOS, evaluate_spans

    if args.top < 1:
        raise ValueError("--top must be >= 1")

    if args.obs_command == "diff":
        before = _load_spans_or_fail(args.before)
        if before is None:
            return 1
        after = _load_spans_or_fail(args.after)
        if after is None:
            return 1
        rows = diff_traces(before, after)[:args.top]
        print(f"op latency deltas — {args.before} ({len(before)} spans) → "
              f"{args.after} ({len(after)} spans); positive delta = slower "
              f"in after:")
        print(render_table([{
            "op": r["op"],
            "before n": r["before_count"],
            "after n": r["after_count"],
            "before total": f"{r['before_total_s'] * 1e3:.1f}ms",
            "after total": f"{r['after_total_s'] * 1e3:.1f}ms",
            "delta": f"{r['delta_s'] * 1e3:+.1f}ms",
            "delta self": f"{r['delta_self_s'] * 1e3:+.1f}ms",
        } for r in rows]))
        return 0

    spans = _load_spans_or_fail(args.source)
    if spans is None:
        return 1
    if args.critical_paths < 0:
        raise ValueError("--critical-paths must be >= 0")

    op_rows = aggregate_ops(spans)
    groups = group_traces(spans)
    slos = [_parse_slo_spec(spec) for spec in args.slo] or \
        [s for s in DEFAULT_SLOS if s.span_op is not None]
    verdicts = evaluate_spans(slos, spans)

    recent = (list(groups)[-args.critical_paths:]
              if args.critical_paths else [])

    if args.format == "json":
        paths = {tid: critical_path(groups[tid]) for tid in recent}
        print(json.dumps({"spans": len(spans), "traces": len(groups),
                          "ops": op_rows, "critical_paths": paths,
                          "slo": verdicts}, indent=2, sort_keys=True))
        return 1 if verdicts.get("status") == "breach" else 0

    print(f"{args.source}: {len(spans)} spans across {len(groups)} "
          f"trace(s)\n")
    print(f"per-op latency (top {min(args.top, len(op_rows))} "
          f"of {len(op_rows)} by total time):")
    print(render_table([{
        "op": r["op"],
        "count": r["count"],
        "errors": r["errors"],
        "total": f"{r['total_s'] * 1e3:.1f}ms",
        "self": f"{r['self_s'] * 1e3:.1f}ms",
        "p50": f"{r['p50_s'] * 1e3:.1f}ms",
        "p95": f"{r['p95_s'] * 1e3:.1f}ms",
        "p99": f"{r['p99_s'] * 1e3:.1f}ms",
        "max": f"{r['max_s'] * 1e3:.1f}ms",
    } for r in op_rows[:args.top]]))

    for trace_id in recent:
        steps = critical_path(groups[trace_id])
        total = sum(step["self_s"] for step in steps)
        print(f"\ncritical path of trace {trace_id} "
              f"({total * 1e3:.1f} ms on-path):")
        for step in steps:
            indent = "  " * step["depth"]
            print(f"  {indent}{step['name']}: "
                  f"{step['duration_s'] * 1e3:.1f}ms "
                  f"(self {step['self_s'] * 1e3:.1f}ms)")

    print(f"\nSLO verdicts ({len(verdicts['slos'])} objectives, "
          f"overall: {verdicts['status']}):")
    print(render_table([{
        "slo": v["name"],
        "status": v["status"],
        "compliance": "n/a" if v["compliance"] is None
        else f"{v['compliance']:.4f}",
        "target": f"{v['objective']['target']:.4f}",
        "burn": "n/a" if v["burn_rate"] is None
        else f"{v['burn_rate']:.2f}",
        "spans": v["total"],
        "objective": v["description"] or v["name"],
    } for v in verdicts["slos"]]))
    if verdicts["status"] == "breach":
        print("\nSLO breach: at least one objective is out of budget "
              "(see burn column)", file=sys.stderr)
        return 1
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    if args.jobs < 1:
        raise ValueError("--jobs must be >= 1")
    if args.queue_size < 1:
        raise ValueError("--queue-size must be >= 1")
    if args.job_timeout <= 0:
        raise ValueError("--job-timeout must be positive")
    if args.job_retries < 0:
        raise ValueError("--job-retries must be >= 0")
    if args.breaker_threshold < 1:
        raise ValueError("--breaker-threshold must be >= 1")
    if args.breaker_cooldown < 0:
        raise ValueError("--breaker-cooldown must be >= 0")
    if args.drain_timeout < 0:
        raise ValueError("--drain-timeout must be >= 0")
    if args.history_interval <= 0:
        raise ValueError("--history-interval must be positive")
    _install_faults(args)
    app = ReproApp(cache_dir=args.cache_dir, store_path=args.out,
                   pool_processes=args.jobs, job_timeout_s=args.job_timeout,
                   queue_size=args.queue_size, job_retries=args.job_retries,
                   breaker_threshold=args.breaker_threshold,
                   breaker_cooldown_s=args.breaker_cooldown,
                   flight_dir=args.flight_dir,
                   history_interval_s=args.history_interval)

    def announce(port: int) -> None:
        # Machine-parseable: the smoke harness starts `--port 0` and reads
        # the bound port off this line.
        print(f"serving on http://{args.host}:{port}", flush=True)

    run_server(app, host=args.host, port=args.port, announce=announce,
               drain_timeout_s=args.drain_timeout)
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    from .check import (load_baseline, render_json, render_text, run_check,
                        write_baseline)

    pkg_root = os.path.dirname(os.path.abspath(__file__))
    root = args.root or pkg_root
    baseline_path = args.baseline
    if baseline_path is None:
        # src/repro -> repo root in the development layout; simply absent
        # (-> no baseline) for an installed package.
        baseline_path = os.path.normpath(
            os.path.join(pkg_root, os.pardir, os.pardir,
                         "check_baseline.json"))
    if args.update_baseline:
        result = run_check(root)
        write_baseline(baseline_path, result.findings)
        print(f"baseline updated: {len(result.findings)} findings "
              f"grandfathered into {baseline_path}")
        return 0
    baseline = load_baseline(baseline_path)
    result = run_check(root, baseline=baseline)
    if args.format == "json":
        print(render_json(result))
    else:
        print(render_text(result))
    return result.exit_code


def _load_recorded_imports(command: str) -> None:
    """Re-register manifest-recorded imported scenarios for this invocation.

    Makes ``repro import`` persistent across CLI processes: a later
    ``repro scenarios --family imported`` / ``repro sweep`` / ``repro
    serve`` sees the same registrations (and identical content hashes, so
    the sweep cache keeps working).  A non-default manifest written with
    ``--manifest PATH`` is picked up via the ``REPRO_IMPORTS`` environment
    variable.  The ``import`` command itself skips the reload — it is about
    to (re-)register its own source with fresh knobs.
    """
    if command not in ("scenarios", "sweep", "dynamics", "profile", "serve"):
        # Only registry-consuming commands reload (cheap — recorded digests
        # are trusted until build time — but pointless for commands that
        # never look at the registry); ``import`` handles its own manifest.
        return
    for message in load_recorded_imports():
        print(f"warning: {message}", file=sys.stderr)


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point of the ``repro`` command; returns the exit status."""
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "map": _cmd_map,
        "plan": _cmd_plan,
        "quality": _cmd_quality,
        "monitor": _cmd_monitor,
        "scenarios": _cmd_scenarios,
        "import": _cmd_import,
        "sweep": _cmd_sweep,
        "dynamics": _cmd_dynamics,
        "profile": _cmd_profile,
        "serve": _cmd_serve,
        "trace": _cmd_trace,
        "obs": _cmd_obs,
        "check": _cmd_check,
    }
    _load_recorded_imports(args.command)
    try:
        setup_logging(args.log_level)
        TRACER.configure(sample_rate=args.trace_sample,
                         log_path=args.trace_log,
                         slow_span_s=args.slow_span,
                         log_max_bytes=int(args.trace_log_max_mb * 1024
                                           * 1024))
        # One root span per invocation: the layers below (pipeline stages,
        # mapper phases, replay epochs, sweep workers) parent under it.
        # ``serve`` roots its own per-request traces instead, and the
        # sampling default keeps everything a no-op unless asked for.
        with TRACER.start_trace(f"cli.{args.command}") as root:
            status = handlers[args.command](args)
        if root.sampled and args.trace_log:
            print(f"trace {root.trace_id} appended to {args.trace_log} "
                  f"(render with: repro trace {args.trace_log})",
                  file=sys.stderr)
        return status
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
