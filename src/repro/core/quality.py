"""Deployment quality metrics (paper §2.3, experiment CLM-QUALITY).

For a deployment plan on a (ground-truth) platform, the metrics quantify the
four constraints:

* **collision count / harmful collisions** — potential cross-clique
  collisions, and those whose concurrent execution would actually distort a
  bandwidth measurement by more than a tolerance (the paper's motivating
  example is a shared link reporting "about the half of the real value");
* **measurement period / frequency** — the token ring serialises the
  experiments of a clique, so the time between two measurements of the same
  pair grows with the number of pairs in the clique;
* **completeness** — fraction of host pairs answerable (directly, by
  representative, or by aggregation) and the accuracy of the aggregated
  estimates against ground truth;
* **intrusiveness** — number of directly measured pairs and probe bytes per
  measurement round.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..netsim.flows import FlowModel
from ..netsim.topology import Platform
from ..simkernel import Engine
from .aggregation import Aggregator, ground_truth_store
from .constraints import check_constraints, find_collisions
from .plan import DeploymentPlan

__all__ = ["QualityReport", "harmful_collisions", "measurement_periods",
           "completeness_accuracy", "evaluate_plan", "compare_plans"]

#: Seconds needed by one NWS experiment between one host pair (latency +
#: bandwidth + connect probes plus protocol overhead).
EXPERIMENT_SECONDS = 1.0


@dataclass
class QualityReport:
    """All quality metrics for one plan."""

    planner: str
    n_hosts: int
    n_cliques: int
    largest_clique: int
    potential_collisions: int
    harmful_collisions: int
    collision_free: bool
    mean_period_s: float
    worst_period_s: float
    completeness: float
    direct_fraction: float
    aggregated_fraction: float
    bandwidth_error: float
    latency_error: float
    measured_pairs: int
    intrusiveness: float
    bytes_per_round: float

    def as_row(self) -> Dict[str, object]:
        """Flat dict representation for tabular reports."""
        return {
            "planner": self.planner,
            "hosts": self.n_hosts,
            "cliques": self.n_cliques,
            "largest": self.largest_clique,
            "collisions": self.potential_collisions,
            "harmful": self.harmful_collisions,
            "period_mean_s": round(self.mean_period_s, 1),
            "period_worst_s": round(self.worst_period_s, 1),
            "completeness": round(self.completeness, 3),
            "bw_err": round(self.bandwidth_error, 3),
            "lat_err": round(self.latency_error, 3),
            "measured_pairs": self.measured_pairs,
            "intrusiveness": round(self.intrusiveness, 3),
        }


def harmful_collisions(plan: DeploymentPlan, platform: Platform,
                       tolerance: float = 0.25,
                       max_pairs: int = 20000) -> int:
    """Count cross-clique collisions that materially distort a measurement.

    For every potential collision, the concurrent max-min rates of the two
    experiments are compared to their solo rates; the collision is *harmful*
    when either measurement would be reduced by more than ``tolerance``
    (e.g. 0.25 = a 25 % under-estimation).
    """
    flow_model = FlowModel(Engine(), platform)
    collisions = find_collisions(plan, platform, max_reports=max_pairs)
    harmful = 0
    for collision in collisions:
        pair_a, pair_b = collision.pair_a, collision.pair_b
        solo_a = flow_model.single_flow_mbps(*pair_a)
        solo_b = flow_model.single_flow_mbps(*pair_b)
        both = flow_model.steady_state_mbps([pair_a, pair_b])
        drop_a = 1.0 - both[0] / solo_a if solo_a > 0 else 0.0
        drop_b = 1.0 - both[1] / solo_b if solo_b > 0 else 0.0
        if max(drop_a, drop_b) > tolerance:
            harmful += 1
    return harmful


def measurement_periods(plan: DeploymentPlan,
                        experiment_seconds: float = EXPERIMENT_SECONDS
                        ) -> Dict[str, float]:
    """Per-clique time between two measurements of the same (ordered) pair.

    The NWS clique token ring lets one host at a time run its experiments
    towards every other member, so a full cycle visits ``n·(n−1)`` ordered
    pairs; the period of any particular pair equals the cycle length.
    """
    periods: Dict[str, float] = {}
    for clique in plan.cliques:
        n = clique.size
        periods[clique.name] = n * (n - 1) * experiment_seconds
    return periods


def completeness_accuracy(plan: DeploymentPlan, platform: Platform
                          ) -> Tuple[float, float, float, float, float]:
    """(completeness, direct fraction, aggregated fraction, bw err, lat err).

    Errors are mean relative errors of the estimates (representative or
    aggregated) against the platform ground truth, over the answerable pairs.
    One :func:`ground_truth_store` feeds both the aggregator's edges and the
    truth each estimate is scored against, and the aggregator runs at most
    one path search per source host.
    """
    truth = ground_truth_store(platform)
    aggregator = Aggregator(plan, truth)
    hosts = sorted(plan.hosts)
    total = 0
    answered = 0
    direct = 0
    aggregated = 0
    bw_errors: List[float] = []
    lat_errors: List[float] = []
    for i, a in enumerate(hosts):
        for b in hosts[i + 1:]:
            total += 1
            estimate = aggregator.estimate(a, b)
            if estimate is None:
                continue
            answered += 1
            if estimate.method == "direct":
                direct += 1
            elif estimate.method == "aggregated":
                aggregated += 1
            true_lat, true_bw = truth(a, b)
            if true_bw > 0:
                bw_errors.append(abs(estimate.bandwidth_mbps - true_bw) / true_bw)
            if true_lat > 0:
                lat_errors.append(abs(estimate.latency_s - true_lat) / true_lat)
    completeness = answered / total if total else 1.0
    direct_frac = direct / total if total else 0.0
    aggregated_frac = aggregated / total if total else 0.0
    bw_err = float(np.mean(bw_errors)) if bw_errors else 0.0
    lat_err = float(np.mean(lat_errors)) if lat_errors else 0.0
    return completeness, direct_frac, aggregated_frac, bw_err, lat_err


def evaluate_plan(plan: DeploymentPlan, platform: Platform,
                  probe_bytes: int = 64 * 1024,
                  experiment_seconds: float = EXPERIMENT_SECONDS,
                  collision_tolerance: float = 0.25) -> QualityReport:
    """Compute the full :class:`QualityReport` for one plan."""
    report = check_constraints(plan, platform)
    periods = measurement_periods(plan, experiment_seconds)
    completeness, direct_frac, aggregated_frac, bw_err, lat_err = (
        completeness_accuracy(plan, platform))
    measured = plan.measured_pairs()
    bytes_per_round = 2 * probe_bytes * len(measured)  # both directions
    return QualityReport(
        planner=str(plan.notes.get("planner", "unknown")),
        n_hosts=len(plan.hosts),
        n_cliques=len(plan.cliques),
        largest_clique=plan.largest_clique_size(),
        potential_collisions=len(report.collisions),
        harmful_collisions=harmful_collisions(plan, platform,
                                              tolerance=collision_tolerance),
        collision_free=report.collision_free,
        mean_period_s=float(np.mean(list(periods.values()))) if periods else 0.0,
        worst_period_s=float(max(periods.values())) if periods else 0.0,
        completeness=completeness,
        direct_fraction=direct_frac,
        aggregated_fraction=aggregated_frac,
        bandwidth_error=bw_err,
        latency_error=lat_err,
        measured_pairs=len(measured),
        intrusiveness=report.intrusiveness,
        bytes_per_round=bytes_per_round,
    )


def compare_plans(plans: Dict[str, DeploymentPlan], platform: Platform,
                  **kwargs) -> List[QualityReport]:
    """Evaluate several plans on the same platform (CLM-QUALITY rows)."""
    reports = []
    for name, plan in plans.items():
        report = evaluate_plan(plan, platform, **kwargs)
        report.planner = name
        reports.append(report)
    return reports
