"""The map → plan → quality pipeline as a reusable function.

Historically the pipeline only existed inside the CLI handlers; batch
experimentation (the scenario sweep of :mod:`repro.sweep`) needs it as a pure
function of a platform, so it lives here: :func:`run_pipeline` maps the
platform with ENV, derives the NWS deployment plan, evaluates it against the
topology-blind baselines and returns everything in a :class:`PipelineResult`.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, Iterator, List, Optional, Sequence

from .core import (
    DeploymentPlan,
    QualityReport,
    compare_plans,
    global_clique_plan,
    independent_pairs_plan,
    plan_from_view,
    random_partition_plan,
    subnet_plan,
)
from .env import map_platform
from .env.envtree import ENVView
from .netsim.topology import Platform
from .nws.config import NWSConfig
from .obs.metrics import REGISTRY
from .obs.trace import TRACER

__all__ = ["PipelineResult", "run_pipeline", "BASELINE_PLANNERS"]

#: Wall-clock distribution of every pipeline stage this process ran —
#: observed unconditionally (an observe is a few dict/lock operations),
#: unlike the spans, which cost nothing outside a sampled trace.
_STAGE_SECONDS = REGISTRY.histogram(
    "repro_pipeline_stage_seconds",
    "pipeline stage wall-clock seconds (map / plan / quality)",
    labels=("stage",))

#: Baseline planners the quality stage can compare the ENV plan against.
BASELINE_PLANNERS: Dict[str, Callable[[Platform, List[str]], DeploymentPlan]] = {
    "global-clique": global_clique_plan,
    "all-pairs": independent_pairs_plan,
    "random": partial(random_partition_plan, clique_size=4),
    "subnet": subnet_plan,
}


@contextmanager
def _stage(timings: Dict[str, float], stage: str, span_name: str,
           **attrs) -> Iterator[None]:
    """One stage under its span, timed once for ``timings`` and the
    ``repro_pipeline_stage_seconds`` histogram."""
    start = time.perf_counter()
    with TRACER.span(span_name, **attrs):
        yield
    timings[stage] = elapsed = time.perf_counter() - start
    _STAGE_SECONDS.labels(stage=stage).observe(elapsed)


@dataclass
class PipelineResult:
    """Everything one map → plan → quality run produced."""

    platform_name: str
    master: str
    n_hosts: int
    view: ENVView
    plan: DeploymentPlan
    #: Quality reports, the ENV plan first, then the requested baselines.
    reports: List[QualityReport] = field(default_factory=list)
    #: Wall-clock seconds per stage: ``map`` / ``plan`` / ``quality``.
    timings: Dict[str, float] = field(default_factory=dict)
    #: Forecasting knobs a deployment of this plan should run with
    #: (:func:`repro.nws.forecasting.default_forecasters` parameters).
    forecast_window: int = 10
    forecast_alpha: float = 0.3

    @property
    def env_report(self) -> QualityReport:
        """The quality report of the ENV-derived plan."""
        for report in self.reports:
            if report.planner == "env":
                return report
        raise ValueError("pipeline result holds no ENV quality report")

    def nws_config(self, **overrides) -> NWSConfig:
        """The NWS runtime configuration matching this pipeline run."""
        overrides.setdefault("forecast_window", self.forecast_window)
        overrides.setdefault("exponential_alpha", self.forecast_alpha)
        return NWSConfig(**overrides)

    def summary(self) -> Dict[str, object]:
        """A flat, JSON-serialisable digest (one sweep-store record body)."""
        env = self.env_report
        return {
            "platform": self.platform_name,
            "master": self.master,
            "hosts": self.n_hosts,
            "networks": len(self.view.classified_networks()),
            "measurements": self.view.stats.measurements,
            "traceroutes": self.view.stats.traceroutes,
            "bytes_injected": self.view.stats.bytes_injected,
            "cliques": env.n_cliques,
            "largest_clique": env.largest_clique,
            "collisions": env.potential_collisions,
            "harmful_collisions": env.harmful_collisions,
            "completeness": env.completeness,
            "bandwidth_error": env.bandwidth_error,
            "latency_error": env.latency_error,
            "intrusiveness": env.intrusiveness,
            "worst_period_s": env.worst_period_s,
            "forecast_window": self.forecast_window,
            "forecast_alpha": self.forecast_alpha,
            "baselines": [r.as_row() for r in self.reports],
            "timings": dict(self.timings),
        }


def run_pipeline(platform: Platform,
                 master: Optional[str] = None,
                 period_s: float = 60.0,
                 baselines: Sequence[str] = ("global-clique", "all-pairs",
                                             "random", "subnet"),
                 mapper: Optional[Callable[[Platform], ENVView]] = None,
                 forecast_window: int = 10,
                 forecast_alpha: float = 0.3,
                 evaluate: bool = True,
                 ) -> PipelineResult:
    """Run map → plan → quality on ``platform`` and return the results.

    Parameters
    ----------
    master:
        ENV master host; defaults to the platform's first host.  Ignored when
        ``mapper`` is given.
    period_s:
        Target measurement period handed to the planner.
    baselines:
        Names of :data:`BASELINE_PLANNERS` to evaluate next to the ENV plan
        (empty sequence = evaluate the ENV plan only).
    mapper:
        Override for the mapping stage (e.g. the merged two-side ENS-Lyon
        mapping); defaults to a plain single-master :func:`map_platform`.
    forecast_window / forecast_alpha:
        The :func:`~repro.nws.forecasting.default_forecasters` parameters a
        deployment of this plan should run with; recorded on the result and
        turned into an :class:`~repro.nws.config.NWSConfig` by
        :meth:`PipelineResult.nws_config`.
    evaluate:
        ``False`` skips the quality stage entirely (map + plan only — for
        callers that deploy the plan rather than score it).  The result then
        has no reports, so :attr:`PipelineResult.env_report` and
        :meth:`PipelineResult.summary` are unavailable.
    """
    unknown = [name for name in baselines if name not in BASELINE_PLANNERS]
    if unknown:
        raise ValueError(f"unknown baseline planners: {unknown}")
    # Validate the forecasting knobs eagerly (NWSConfig owns the rules).
    NWSConfig(forecast_window=forecast_window, exponential_alpha=forecast_alpha)

    timings: Dict[str, float] = {}
    with _stage(timings, "map", "pipeline.map", platform=platform.name):
        if mapper is not None:
            view = mapper(platform)
        else:
            view = map_platform(platform, master or platform.host_names()[0])

    with _stage(timings, "plan", "pipeline.plan"):
        plan = plan_from_view(view, period_s=period_s)

    hosts = sorted(plan.hosts)
    reports: List[QualityReport] = []
    if evaluate:
        with _stage(timings, "quality", "pipeline.evaluate",
                    baselines=len(baselines)):
            plans = {"env": plan}
            for name in baselines:
                # One child span per baseline planner, so trace analytics
                # can attribute evaluate-stage time to a specific planner.
                with TRACER.span("pipeline.baseline", planner=name):
                    plans[name] = BASELINE_PLANNERS[name](platform, hosts)
            reports = compare_plans(plans, platform)

    return PipelineResult(
        platform_name=platform.name,
        master=view.master,
        n_hosts=len(hosts),
        view=view,
        plan=plan,
        reports=reports,
        timings=timings,
        forecast_window=forecast_window,
        forecast_alpha=forecast_alpha,
    )
