"""Indirect estimation of unmeasured connections (completeness, paper §2.3).

*"Given three machines A, B and C, if the machine B is the gateway connecting
A and C, it is sufficient to conduct only the experiments on (AB) and on
(BC).  Latency between A and C can then be roughly estimated by adding the
latencies measured on AB and on BC.  The minimum of the bandwidths on AB and
BC can be used to estimate the one on AC."*

The :class:`Aggregator` generalises this to any number of hops: the plan's
measured (or representative) pairs form a graph, queries are answered along
the minimum-latency path in that graph, latencies are summed and bandwidths
minimised.  The values attached to the graph edges come from a
:class:`MeasurementStore`-like object mapping pairs to (latency, bandwidth);
the analysis code feeds it either ground-truth values or NWS forecasts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, List, Optional, Tuple

import networkx as nx

from ..netsim.topology import Platform
from ..perf import PATH_SEARCHES, fast_path_enabled
from .constraints import coverage_graph
from .plan import DeploymentPlan, host_pair

__all__ = ["LinkEstimate", "Aggregator", "ground_truth_store"]


@dataclass(frozen=True)
class LinkEstimate:
    """An end-to-end estimate and how it was obtained."""

    src: str
    dst: str
    latency_s: float
    bandwidth_mbps: float
    #: "direct", "representative" or "aggregated"
    method: str
    #: Hosts along the aggregation path (including the end points).
    path: Tuple[str, ...]


#: Callable returning (latency_s, bandwidth_mbps) for a *measured* pair.
PairValues = Callable[[str, str], Tuple[float, float]]


def ground_truth_store(platform: Platform) -> PairValues:
    """Pair values straight from the simulator's ground truth.

    Latency is the round-trip/2 average of both directed routes; bandwidth is
    the single-flow max-min rate in the (src → dst) direction.
    """
    from ..netsim.flows import FlowModel
    from ..simkernel import Engine

    flow_model = FlowModel(Engine(), platform)

    def values(a: str, b: str) -> Tuple[float, float]:
        latency = (platform.route(a, b).latency + platform.route(b, a).latency) / 2.0
        bandwidth = flow_model.single_flow_mbps(a, b)
        return latency, bandwidth

    return values


def _measured_latency(a: str, b: str, data: dict) -> Optional[float]:
    """Path-search weight of an edge: its latency, or ``None`` (skip the
    edge) when the latency is NaN."""
    latency = data["latency"]
    return None if latency != latency else latency


class Aggregator:
    """Answers end-to-end queries from a deployment plan's measurements.

    One Dijkstra from a source yields the minimum-latency paths to every
    target (Dijkstra 1959), and the coverage graph and its edge values are
    fixed at construction.  So the first aggregated query from a host runs
    one single-source search (``weight="latency"``), and every later query
    from that host reads its path from the result, kept for the aggregator's
    lifetime.  Under ``repro.perf.fast_path(False)`` each query runs its own
    per-pair search instead (the reference).  Each search bumps
    ``repro.perf.PATH_SEARCHES``.

    The NaN rule.  An edge whose latency is NaN (an NWS forecast whose
    series is missing) is not a measured segment, so every path search
    skips it: Dijkstra never compares a NaN, whose outcome would follow
    adjacency and heap order.  A NaN bandwidth on the chosen path makes the
    path's bandwidth NaN, since the path crosses an unmeasured segment
    (``min`` would drop the NaN).
    """

    def __init__(self, plan: DeploymentPlan, pair_values: PairValues):
        self.plan = plan
        self.pair_values = pair_values
        self.graph = coverage_graph(plan)
        # Attach measured values to the edges once.
        for a, b, data in self.graph.edges(data=True):
            source = data["source"]
            sa, sb = sorted(source)
            latency, bandwidth = pair_values(sa, sb)
            data["latency"] = latency
            data["bandwidth"] = bandwidth
        #: Source host -> minimum-latency node path to every reachable host.
        self._paths: Dict[str, Dict[str, List[str]]] = {}

    def _path(self, src: str, dst: str) -> Optional[List[str]]:
        """The minimum-latency node path from ``src`` to ``dst``, or ``None``."""
        if src not in self.graph or dst not in self.graph:
            return None
        if not fast_path_enabled():
            PATH_SEARCHES.value += 1.0
            try:
                return nx.shortest_path(self.graph, src, dst,
                                        weight=_measured_latency)
            except nx.NetworkXNoPath:
                return None
        paths = self._paths.get(src)
        if paths is None:
            PATH_SEARCHES.value += 1.0
            paths = nx.single_source_dijkstra_path(self.graph, src,
                                                   weight=_measured_latency)
            self._paths[src] = paths
        return paths.get(dst)

    # -- queries ---------------------------------------------------------------
    def estimate(self, src: str, dst: str) -> Optional[LinkEstimate]:
        """Estimate (latency, bandwidth) between two hosts, or ``None``.

        Directly measured pairs and representative-covered pairs are answered
        from one edge; other pairs are answered along the minimum-latency
        path of measured segments (sum of latencies, min of bandwidths; see
        the NaN rule), ``None`` when no path exists.
        """
        if src == dst:
            return LinkEstimate(src=src, dst=dst, latency_s=0.0,
                                bandwidth_mbps=float("inf"), method="direct",
                                path=(src,))
        if self.graph.has_edge(src, dst):
            data = self.graph.edges[src, dst]
            method = "direct" if data.get("direct") else "representative"
            return LinkEstimate(src=src, dst=dst, latency_s=data["latency"],
                                bandwidth_mbps=data["bandwidth"], method=method,
                                path=(src, dst))
        nodes = self._path(src, dst)
        if nodes is None:
            return None
        latency = 0.0
        bandwidth = float("inf")
        for a, b in zip(nodes, nodes[1:]):
            data = self.graph.edges[a, b]
            latency += data["latency"]
            hop = data["bandwidth"]
            # min(), but a NaN hop makes the bandwidth NaN for good.
            if hop < bandwidth or hop != hop:
                bandwidth = hop
        return LinkEstimate(src=src, dst=dst, latency_s=latency,
                            bandwidth_mbps=bandwidth, method="aggregated",
                            path=tuple(nodes))

    def estimate_all_pairs(self) -> Dict[FrozenSet[str], LinkEstimate]:
        """Estimates for every unordered host pair of the plan."""
        out: Dict[FrozenSet[str], LinkEstimate] = {}
        hosts = sorted(self.plan.hosts)
        for i, a in enumerate(hosts):
            for b in hosts[i + 1:]:
                est = self.estimate(a, b)
                if est is not None:
                    out[host_pair(a, b)] = est
        return out
