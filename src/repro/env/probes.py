"""Probe drivers: how ENV observes the (simulated) network.

ENV relies exclusively on user-level, end-to-end observations (paper §3.5);
every observation it needs is captured by the small :class:`ProbeDriver`
interface below:

* single-flow bandwidth between two hosts,
* bandwidths of several transfers run *concurrently* (the pairwise and jam
  experiments),
* a traceroute towards a destination,
* host reachability (firewalls) and host metadata.

Two implementations are provided.  :class:`AnalyticProbeDriver` queries the
flow model's steady-state allocator directly — fast, exact, ideal for unit
tests and large parameter sweeps.  :class:`SimulatedProbeDriver` actually
schedules the probe transfers on a discrete-event engine so that probes
experience transient effects and background load — this is the faithful mode
used by the headline experiments.

Both drivers account for the number of measurement operations, the bytes
injected and an estimate of wall-clock mapping time, which feeds the
naive-vs-ENV cost comparison of paper §4.3 (experiment CLM-NAIVE).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..perf import PROBE_MEMO_HITS, fast_path_enabled
from ..simkernel import Engine
from ..netsim.firewall import platform_allows
from ..netsim.flows import FlowModel
from ..netsim.topology import Platform
from ..netsim.traceroute import TracerouteResult, traceroute

__all__ = ["ProbeStats", "ProbeMemo", "ProbeDriver", "AnalyticProbeDriver",
           "SimulatedProbeDriver"]

#: Stabilisation delay the paper assumes between two measurements ("half a
#: minute ... since the network needs to stabilize between each experiments").
SECONDS_PER_MEASUREMENT = 30.0


@dataclass
class ProbeStats:
    """Accounting of the probing effort spent by a mapping run."""

    measurements: int = 0           # measurement operations (single or concurrent)
    probe_flows: int = 0            # individual probe transfers started
    bytes_injected: float = 0.0
    traceroutes: int = 0
    estimated_seconds: float = 0.0  # wall-clock estimate of the mapping
    memo_hits: int = 0              # measurements answered from the probe memo

    def merge(self, other: "ProbeStats") -> "ProbeStats":
        """Combine the accounting of two mapping runs (e.g. firewall sides)."""
        return ProbeStats(
            measurements=self.measurements + other.measurements,
            probe_flows=self.probe_flows + other.probe_flows,
            bytes_injected=self.bytes_injected + other.bytes_injected,
            traceroutes=self.traceroutes + other.traceroutes,
            estimated_seconds=self.estimated_seconds + other.estimated_seconds,
            memo_hits=self.memo_hits + other.memo_hits,
        )


class ProbeMemo:
    """Memo of deterministic probe results, keyed on (op, pairs, size).

    Each entry remembers the topology state it was measured under: the
    platform-wide route epoch, the per-pair route-override epochs, and the
    mutation version of every link and hub the probed routes cross
    (:meth:`~repro.netsim.topology.Platform.element_version`).  A lookup is
    served only while all of those are unchanged, so a platform mutation
    invalidates exactly the entries whose measurements it could alter —
    bandwidth drift on one link leaves every other memoised pair warm.

    A memo may outlive a single driver: :func:`repro.dynamics.remap` hands
    one memo across remap epochs so warm starts stop re-measuring identical
    pairs.  Only noiseless analytic drivers use a memo (a noisy or simulated
    measurement is not reproducible by construction).
    """

    __slots__ = ("_entries",)

    def __init__(self) -> None:
        self._entries: Dict[Tuple, Tuple] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def _dependencies(self, platform: Platform,
                      pairs: Tuple[Tuple[str, str], ...]) -> Tuple:
        deps = set()
        for src, dst in pairs:
            route = platform.route(src, dst)
            for link in route.links:
                deps.add(("link", link.name))
            for key in route.constraint_keys(platform):
                if key[0] == "hub":
                    deps.add(("hub", key[1]))
        return tuple(sorted(deps))

    def lookup(self, platform: Platform, op: str,
               pairs: Tuple[Tuple[str, str], ...], size_bytes: int):
        """The memoised result, or ``None`` when absent or invalidated."""
        memo_key = (op, pairs, size_bytes)
        entry = self._entries.get(memo_key)
        if entry is None:
            return None
        value, route_epoch, pair_stamps, dep_stamps = entry
        if route_epoch != platform.route_epoch:
            del self._entries[memo_key]
            return None
        for (src, dst), epoch in pair_stamps:
            if platform.pair_epoch(src, dst) != epoch:
                del self._entries[memo_key]
                return None
        for dep, version in dep_stamps:
            if platform.element_version(dep) != version:
                del self._entries[memo_key]
                return None
        return value

    def store(self, platform: Platform, op: str,
              pairs: Tuple[Tuple[str, str], ...], size_bytes: int,
              value) -> None:
        self._entries[(op, pairs, size_bytes)] = (
            value,
            platform.route_epoch,
            tuple((pair, platform.pair_epoch(*pair)) for pair in pairs),
            tuple((dep, platform.element_version(dep))
                  for dep in self._dependencies(platform, pairs)),
        )


class ProbeDriver(ABC):
    """Everything ENV is allowed to observe about the platform."""

    def __init__(self, platform: Platform,
                 seconds_per_measurement: float = SECONDS_PER_MEASUREMENT):
        self.platform = platform
        self.seconds_per_measurement = seconds_per_measurement
        self.stats = ProbeStats()

    # -- mandatory observations ------------------------------------------------
    @abstractmethod
    def bandwidth(self, src: str, dst: str, size_bytes: int) -> float:
        """Measured bandwidth (Mbit/s) of one probe transfer ``src`` → ``dst``."""

    @abstractmethod
    def concurrent_bandwidths(self, pairs: Sequence[Tuple[str, str]],
                              size_bytes: int) -> List[float]:
        """Bandwidths observed when all ``pairs`` transfer at the same time."""

    def run_traceroute(self, src: str, dst: Optional[str] = None) -> TracerouteResult:
        """Run a traceroute from ``src`` (towards the external world by default)."""
        self.stats.traceroutes += 1
        return traceroute(self.platform, src, dst)

    # -- metadata ----------------------------------------------------------------
    def can_communicate(self, src: str, dst: str) -> bool:
        """Whether the two hosts can exchange traffic (firewalls considered)."""
        return (platform_allows(self.platform, src, dst)
                and platform_allows(self.platform, dst, src))

    def host_ip(self, host: str) -> Optional[str]:
        node = self.platform.nodes.get(host)
        if node is None or node.ip is None:
            return None
        return str(node.ip)

    def host_properties(self, host: str) -> Dict[str, object]:
        node = self.platform.nodes.get(host)
        return dict(node.properties) if node is not None else {}

    def host_domain(self, host: str) -> str:
        node = self.platform.nodes.get(host)
        return node.domain if node is not None else ""

    def resolve_name(self, ip: str) -> Optional[str]:
        """Reverse DNS of an address, or ``None`` when resolution fails."""
        return self.platform.resolver.try_reverse(ip)

    # -- accounting helpers ----------------------------------------------------------
    def _account(self, n_flows: int, size_bytes: int) -> None:
        self.stats.measurements += 1
        self.stats.probe_flows += n_flows
        self.stats.bytes_injected += n_flows * size_bytes
        self.stats.estimated_seconds += self.seconds_per_measurement


class AnalyticProbeDriver(ProbeDriver):
    """Probe driver answering from the max-min fair steady state.

    Optional multiplicative log-normal noise models measurement jitter; the
    noise is drawn from a dedicated stream so runs stay reproducible.

    Noiseless drivers memoise their measurements in a :class:`ProbeMemo`
    (a fresh one per driver unless ``memo`` is given): a repeated probe of
    the same pair(s) with the same size on an unmutated topology is answered
    from the memo — counted in ``stats.memo_hits`` instead of
    ``stats.measurements`` — and returns the identical value the experiment
    would have produced.  Pass a shared memo to carry the warm state across
    drivers (e.g. across remap epochs).  With ``noise_sigma > 0`` the memo
    is disabled: each measurement must draw fresh jitter.
    """

    def __init__(self, platform: Platform,
                 noise_sigma: float = 0.0,
                 rng: Optional[np.random.Generator] = None,
                 seconds_per_measurement: float = SECONDS_PER_MEASUREMENT,
                 memo: Optional[ProbeMemo] = None,
                 memoize: bool = True):
        super().__init__(platform, seconds_per_measurement)
        self.noise_sigma = noise_sigma
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self._flow_model = FlowModel(Engine(), platform)
        if noise_sigma > 0 or not memoize:
            # ``memoize=False`` models the naive tool that re-measures
            # everything (the dynamics oracle track).
            memo = None
        elif memo is None and fast_path_enabled():
            memo = ProbeMemo()
        self.memo = memo

    def _noisy(self, value: float) -> float:
        if self.noise_sigma <= 0:
            return value
        return value * float(self.rng.lognormal(mean=0.0, sigma=self.noise_sigma))

    def bandwidth(self, src: str, dst: str, size_bytes: int) -> float:
        memo = self.memo
        if memo is not None:
            hit = memo.lookup(self.platform, "bw", ((src, dst),), size_bytes)
            if hit is not None:
                self.stats.memo_hits += 1
                PROBE_MEMO_HITS.value += 1.0
                return hit
        self._account(1, size_bytes)
        rate = self._flow_model.single_flow_mbps(src, dst)
        latency = self.platform.route(src, dst).latency
        duration = latency + size_bytes * 8.0 / 1e6 / rate
        value = self._noisy(size_bytes * 8.0 / 1e6 / duration)
        if memo is not None:
            memo.store(self.platform, "bw", ((src, dst),), size_bytes, value)
        return value

    def concurrent_bandwidths(self, pairs: Sequence[Tuple[str, str]],
                              size_bytes: int) -> List[float]:
        memo = self.memo
        key_pairs = tuple(pairs)
        if memo is not None:
            hit = memo.lookup(self.platform, "conc", key_pairs, size_bytes)
            if hit is not None:
                self.stats.memo_hits += 1
                PROBE_MEMO_HITS.value += 1.0
                return list(hit)
        self._account(len(pairs), size_bytes)
        rates = self._flow_model.steady_state_mbps(list(pairs))
        values = [self._noisy(r) for r in rates]
        if memo is not None:
            # Store a copy: the returned list is the caller's to mutate.
            memo.store(self.platform, "conc", key_pairs, size_bytes,
                       list(values))
        return values


class SimulatedProbeDriver(ProbeDriver):
    """Probe driver that schedules real transfers on a discrete-event engine.

    Each measurement starts its probe flows simultaneously and waits for all
    of them; bandwidth is computed from each flow's own completion time, so
    unequal sharing, latencies and any background traffic running on the same
    engine are reflected in the results — exactly like the real tool.
    """

    def __init__(self, platform: Platform,
                 engine: Optional[Engine] = None,
                 flow_model: Optional[FlowModel] = None,
                 stabilisation_s: float = 0.5,
                 seconds_per_measurement: float = SECONDS_PER_MEASUREMENT):
        super().__init__(platform, seconds_per_measurement)
        self.engine = engine if engine is not None else Engine()
        self.flow_model = (flow_model if flow_model is not None
                           else FlowModel(self.engine, platform))
        if self.flow_model.platform is not platform:
            raise ValueError("flow_model must be bound to the same platform")
        self.stabilisation_s = stabilisation_s

    def _run_transfers(self, pairs: Sequence[Tuple[str, str]],
                       size_bytes: int) -> List[float]:
        events = []
        start = self.engine.now
        for src, dst in pairs:
            events.append(self.flow_model.transfer(src, dst, size_bytes,
                                                   label=f"env-probe:{src}->{dst}"))
        self.engine.run(until=self.engine.all_of(events))
        bandwidths = []
        for ev in events:
            result = ev.value[ev] if isinstance(ev.value, dict) else ev.value
            duration = max(result.end_time - start, 1e-12)
            bandwidths.append(size_bytes * 8.0 / 1e6 / duration)
        # Let the platform drain before the next measurement.
        if self.stabilisation_s > 0:
            self.engine.run(until=self.engine.now + self.stabilisation_s)
        return bandwidths

    def bandwidth(self, src: str, dst: str, size_bytes: int) -> float:
        self._account(1, size_bytes)
        return self._run_transfers([(src, dst)], size_bytes)[0]

    def concurrent_bandwidths(self, pairs: Sequence[Tuple[str, str]],
                              size_bytes: int) -> List[float]:
        self._account(len(pairs), size_bytes)
        return self._run_transfers(pairs, size_bytes)
