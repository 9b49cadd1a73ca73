"""The deployed (simulated) Network Weather Service.

:class:`NWSSystem` instantiates, from a :class:`~repro.core.plan.DeploymentPlan`
and a simulated platform, the whole process organisation of paper §2.1:

* one **name server** (on the plan's designated host),
* one **memory server** per clique (on the clique's first host),
* one **sensor** per monitored host,
* one token-ring **clique runner** per clique,
* one **forecaster** front-end answering client queries.

Running the system for some simulated time produces measurement series; the
query API then answers bandwidth/latency questions either from a directly
measured series, from the representative pair of a shared network, or by
aggregating measured segments along a path (the completeness mechanism of
§2.3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

import numpy as np

from ..core.aggregation import Aggregator
from ..core.manager import build_host_configs
from ..core.plan import DeploymentPlan, host_pair
from ..netsim.flows import FlowModel
from ..netsim.tcp import TcpModel
from ..netsim.topology import Platform
from ..simkernel import Engine, Tracer
from .clique import CliqueRunner
from .config import NWSConfig
from .experiments import (
    METRIC_BANDWIDTH,
    METRIC_CONNECT,
    METRIC_LATENCY,
    LinkExperiment,
)
from .forecasting import Forecast, ForecasterBank
from .memory import MemoryServer, Series
from .nameserver import NameServer, Registration
from .sensor import Sensor

__all__ = ["QueryAnswer", "NWSSystem"]


@dataclass(frozen=True)
class QueryAnswer:
    """Answer to a client query about a host pair."""

    src: str
    dst: str
    metric: str
    forecast: Optional[Forecast]
    #: "direct", "representative", "aggregated" or "unavailable"
    method: str
    #: For representative answers, the measured pair whose series was used.
    source_pair: Optional[Tuple[str, str]] = None

    @property
    def available(self) -> bool:
        return self.forecast is not None


class NWSSystem:
    """A running simulated NWS deployment."""

    def __init__(self, platform: Platform, plan: DeploymentPlan,
                 engine: Optional[Engine] = None,
                 config: Optional[NWSConfig] = None,
                 tracer: Optional[Tracer] = None):
        self.platform = platform
        self.plan = plan
        self.engine = engine if engine is not None else Engine()
        self.config = config if config is not None else NWSConfig()
        self.tracer = tracer if tracer is not None else Tracer()
        self.flow_model = FlowModel(self.engine, platform, tracer=self.tracer)
        self.tcp = TcpModel(self.flow_model)
        self.experiment = LinkExperiment(self.tcp, self.config)

        nameserver_host = plan.nameserver_host or (plan.hosts[0] if plan.hosts else "")
        self.nameserver = NameServer(host=nameserver_host)
        self.nameserver.register(Registration(name="nameserver",
                                              kind="nameserver",
                                              host=nameserver_host))
        self.sensors: Dict[str, Sensor] = {}
        self.memories: Dict[str, MemoryServer] = {}
        #: Memory server name -> server, for the name server's series index.
        self._memory_named: Dict[str, MemoryServer] = {}
        self.cliques: Dict[str, CliqueRunner] = {}
        self.host_configs = build_host_configs(plan)
        self._build()
        self._started = False

    # -- construction -------------------------------------------------------------
    def _build(self) -> None:
        for host in sorted(self.plan.monitored_hosts()):
            sensor = Sensor(host=host)
            for clique in self.plan.cliques_of(host):
                sensor.join_clique(clique.name)
            self.sensors[host] = sensor
            self.nameserver.register(Registration(name=f"sensor@{host}",
                                                  kind="sensor", host=host))
        for clique in self.plan.cliques:
            memory = MemoryServer(name=f"memory@{clique.name}",
                                  host=clique.hosts[0],
                                  capacity=self.config.memory_capacity)
            self.memories[clique.name] = memory
            self._memory_named[memory.name] = memory
            self.nameserver.register(Registration(name=memory.name, kind="memory",
                                                  host=memory.host))
            runner = CliqueRunner(
                name=clique.name, members=list(clique.hosts), engine=self.engine,
                experiment=self.experiment, memory=memory,
                nameserver=self.nameserver, sensors=self.sensors,
                config=self.config, tracer=self.tracer, period_s=clique.period_s,
            )
            self.cliques[clique.name] = runner
        self.nameserver.register(Registration(name="forecaster", kind="forecaster",
                                              host=self.nameserver.host))

    # -- lifecycle -----------------------------------------------------------------
    def start(self) -> None:
        """Start every clique protocol (idempotent)."""
        if self._started:
            return
        for runner in self.cliques.values():
            runner.start()
        self._started = True

    def run(self, duration: float) -> None:
        """Run the monitoring system for ``duration`` simulated seconds."""
        self.start()
        self.engine.run(until=self.engine.now + duration)

    def stop(self) -> None:
        for runner in self.cliques.values():
            runner.stop()

    # -- failure injection -------------------------------------------------------------
    def fail_host(self, host: str) -> None:
        """Mark a host as down; cliques skip it after the token timeout."""
        if host in self.sensors:
            self.sensors[host].fail()

    def recover_host(self, host: str) -> None:
        if host in self.sensors:
            self.sensors[host].recover()

    # -- series access -------------------------------------------------------------------
    def series(self, src: str, dst: str, metric: str) -> Optional[Series]:
        """The stored series for an ordered pair, if any memory holds one."""
        memory = self._memory_named.get(
            self.nameserver.memory_for_series(src, dst, metric))
        return None if memory is None else memory.fetch(src, dst, metric)

    def _series_either_direction(self, a: str, b: str, metric: str
                                 ) -> Optional[Series]:
        return self.series(a, b, metric) or self.series(b, a, metric)

    def _forecast_series(self, series: Series) -> Optional[Forecast]:
        bank = ForecasterBank(window=self.config.forecast_window,
                              alpha=self.config.exponential_alpha)
        bank.update_many(series.values())
        return bank.forecast()

    # -- client API ----------------------------------------------------------------------
    def query(self, src: str, dst: str, metric: str = METRIC_BANDWIDTH) -> QueryAnswer:
        """Answer a client query for (src, dst, metric).

        Resolution order: directly measured series → representative pair of a
        shared network → aggregation along measured segments.
        """
        series = self.series(src, dst, metric) or self.series(dst, src, metric)
        if series is not None and len(series) > 0:
            return QueryAnswer(src=src, dst=dst, metric=metric,
                               forecast=self._forecast_series(series),
                               method="direct", source_pair=(series.src, series.dst))
        rep = self.plan.pair_source(src, dst) if src != dst else None
        if rep is not None:
            ra, rb = sorted(rep)
            series = self._series_either_direction(ra, rb, metric)
            if series is not None and len(series) > 0:
                return QueryAnswer(src=src, dst=dst, metric=metric,
                                   forecast=self._forecast_series(series),
                                   method="representative", source_pair=(ra, rb))
        aggregated = self._aggregate(src, dst, metric)
        if aggregated is not None:
            return aggregated
        return QueryAnswer(src=src, dst=dst, metric=metric, forecast=None,
                           method="unavailable")

    def _pair_forecast_values(self, a: str, b: str) -> Tuple[float, float]:
        """(latency, bandwidth) forecasts for a measured pair (for aggregation)."""
        latency_series = self._series_either_direction(a, b, METRIC_LATENCY)
        bandwidth_series = self._series_either_direction(a, b, METRIC_BANDWIDTH)
        latency = float("nan")
        bandwidth = float("nan")
        if latency_series is not None and len(latency_series) > 0:
            forecast = self._forecast_series(latency_series)
            if forecast is not None:
                latency = forecast.value
        if bandwidth_series is not None and len(bandwidth_series) > 0:
            forecast = self._forecast_series(bandwidth_series)
            if forecast is not None:
                bandwidth = forecast.value
        return latency, bandwidth

    def _aggregate(self, src: str, dst: str, metric: str) -> Optional[QueryAnswer]:
        """Combine measured segments along a path (paper §2.3 completeness)."""
        if metric not in (METRIC_BANDWIDTH, METRIC_LATENCY, METRIC_CONNECT):
            return None
        aggregator = Aggregator(self.plan, self._pair_forecast_values)
        estimate = aggregator.estimate(src, dst)
        if estimate is None:
            return None
        if metric == METRIC_BANDWIDTH:
            value = estimate.bandwidth_mbps
        elif metric == METRIC_LATENCY:
            value = estimate.latency_s
        else:
            value = 1.5 * estimate.latency_s  # connect ≈ 1.5 RTT of the path
        if value != value or value == float("inf"):  # NaN/inf: series missing
            return None
        forecast = Forecast(value=float(value), method="aggregation", mae=0.0,
                            sample_count=0)
        return QueryAnswer(src=src, dst=dst, metric=metric, forecast=forecast,
                           method="aggregated")

    # -- reporting ------------------------------------------------------------------------
    def measurement_counts(self) -> Dict[str, int]:
        """Number of experiments completed per clique."""
        return {name: runner.stats.experiments
                for name, runner in self.cliques.items()}

    def pair_measurement_times(self) -> Dict[FrozenSet[str], List[float]]:
        """Timestamps of completed experiments per unordered host pair."""
        times: Dict[FrozenSet[str], List[float]] = {}
        for record in self.tracer.select("nws.experiment_end"):
            pair = host_pair(record["src"], record["dst"])
            times.setdefault(pair, []).append(record.time)
        return times

    def measurement_error_report(self) -> Dict[FrozenSet[str], float]:
        """Mean relative bandwidth error per measured pair vs. ground truth."""
        reference = FlowModel(Engine(), self.platform)
        errors: Dict[FrozenSet[str], List[float]] = {}
        for record in self.tracer.select("nws.experiment_end"):
            src, dst = record["src"], record["dst"]
            truth = reference.single_flow_mbps(src, dst)
            if truth <= 0:
                continue
            err = abs(record["bandwidth_mbps"] - truth) / truth
            errors.setdefault(host_pair(src, dst), []).append(err)
        return {pair: float(np.mean(vals)) for pair, vals in errors.items()}

    def total_probe_bytes(self) -> float:
        """Bytes injected by all NWS experiments so far."""
        total = 0.0
        for record in self.tracer.select("flow.end"):
            label = record.get("label", "")
            if isinstance(label, str) and (label.startswith("bandwidth:")
                                           or label.startswith("latency:")
                                           or label.startswith("connect:")):
                total += record["size"]
        return total
