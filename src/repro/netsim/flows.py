"""Flow-level bandwidth sharing model.

Active transfers are modelled as *flows* along routes.  At any instant, the
rate of every active flow is obtained by progressive-filling **max-min
fairness** over the capacity constraints its route crosses (per-direction
link capacities and hub shared-segment capacities).  Whenever a flow starts
or finishes, all rates are recomputed and the next completion is
re-scheduled.  This reproduces the contention behaviours the paper relies
on: two transfers crossing the same hub each see half the segment bandwidth,
while transfers on distinct switched ports do not interact.

The model is deliberately flow-level (not packet-level): the paper's
methodology only needs steady-state sharing ratios, and a flow-level model
keeps platform-scale simulations fast.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..perf import ALLOCATIONS, fast_path_enabled
from ..simkernel import Engine, Event, Tracer
from .topology import Platform, Route, mbps_to_bytes_per_s

__all__ = ["Flow", "TransferResult", "FlowModel", "max_min_allocation"]

#: Above this many flows the progressive filling runs on a numpy constraint
#: matrix; below it the scalar loop wins (numpy setup costs dominate).
VECTORIZE_THRESHOLD = 24


def _max_min_scalar(
    flow_keys: Sequence[Sequence[Tuple]],
    capacities: Dict[Tuple, float],
    key_members: Dict[Tuple, set],
    rates: List[float],
    active: set,
) -> List[float]:
    remaining = {key: capacities[key] for key in key_members}
    while active:
        best_key = None
        best_share = float("inf")
        for key, members in key_members.items():
            live = members & active
            if not live:
                continue
            share = remaining[key] / len(live)
            if share < best_share:
                best_share = share
                best_key = key
        if best_key is None:
            # Remaining flows cross only saturated-and-removed keys; should not
            # happen, but terminate defensively with zero rates.
            break
        frozen = key_members[best_key] & active
        for idx in frozen:
            rates[idx] = best_share
            active.discard(idx)
            for key in flow_keys[idx]:
                remaining[key] = max(0.0, remaining[key] - best_share)
        # The bottleneck key is now exhausted for allocation purposes.
        key_members[best_key] = set()
    return rates


def _max_min_vectorized(
    flow_keys: Sequence[Sequence[Tuple]],
    capacities: Dict[Tuple, float],
    key_members: Dict[Tuple, set],
    rates: List[float],
    active_set: set,
) -> List[float]:
    """Progressive filling over a numpy constraint matrix.

    Bit-identical to :func:`_max_min_scalar`: keys are ordered by first
    appearance (matching dict insertion order), ``argmin`` picks the first
    minimal share (matching the scalar strict-``<`` scan), and capacity is
    drained by repeated subtraction so the float rounding sequence matches.
    """
    n = len(flow_keys)
    key_order = list(key_members)
    key_index = {key: j for j, key in enumerate(key_order)}
    counts = np.zeros((len(key_order), n), dtype=np.int64)
    for i, keys in enumerate(flow_keys):
        for key in keys:
            counts[key_index[key], i] += 1
    membership = counts > 0
    members_int = membership.astype(np.int64)
    remaining = np.array([capacities[key] for key in key_order], dtype=float)
    active = np.zeros(n, dtype=bool)
    for idx in active_set:
        active[idx] = True
    while active.any():
        # Distinct live members per key (a boolean matmul would collapse to
        # logical-or, not a count).
        live = members_int @ active.astype(np.int64)
        alive = live > 0
        shares = np.full(len(key_order), np.inf)
        np.divide(remaining, live, out=shares, where=alive)
        best = int(np.argmin(shares))
        if not np.isfinite(shares[best]):
            break
        best_share = float(shares[best])
        frozen = membership[best] & active
        frozen_idx = np.nonzero(frozen)[0]
        for i in frozen_idx:
            rates[int(i)] = best_share
        active &= ~frozen
        drains = counts[:, frozen_idx].sum(axis=1)
        for j in np.nonzero(drains)[0]:
            value = remaining[j]
            for _ in range(int(drains[j])):
                value = max(0.0, value - best_share)
            remaining[j] = value
        membership[best, :] = False
        members_int[best, :] = 0
    return rates


def max_min_allocation(
    flow_keys: Sequence[Sequence[Tuple]],
    capacities: Dict[Tuple, float],
) -> List[float]:
    """Progressive-filling max-min fair allocation.

    Parameters
    ----------
    flow_keys:
        For each flow, the list of constraint keys its route crosses.
    capacities:
        Capacity of every constraint key (any consistent unit, typically
        Mbit/s).  Never mutated.

    Returns
    -------
    list of float
        The allocated rate of each flow, in the same unit as ``capacities``.
        Flows crossing no constraint (e.g. loopback) get ``inf``.
    """
    ALLOCATIONS.value += 1.0
    n = len(flow_keys)
    rates = [0.0] * n
    active = set()
    key_members: Dict[Tuple, set] = {}
    for idx, keys in enumerate(flow_keys):
        if not keys:
            # Flows with no constraints are unconstrained.
            rates[idx] = float("inf")
            continue
        active.add(idx)
        for key in keys:
            if key not in capacities:
                raise KeyError(f"flow {idx} uses unknown constraint key {key!r}")
            key_members.setdefault(key, set()).add(idx)
    if not active:
        return rates
    if n >= VECTORIZE_THRESHOLD:
        return _max_min_vectorized(flow_keys, capacities, key_members, rates,
                                   active)
    return _max_min_scalar(flow_keys, capacities, key_members, rates, active)


_flow_ids = itertools.count(1)

#: A flow is considered delivered once less than this many bytes remain.  The
#: slack is far below one byte, yet large enough that the completion timer
#: always advances the simulated clock (guards against a floating-point
#: livelock where ``now + remaining/rate == now``).
COMPLETION_EPSILON_BYTES = 0.5


@dataclass(slots=True)
class Flow:
    """One active transfer inside the :class:`FlowModel`."""

    fid: int
    src: str
    dst: str
    size_bytes: float
    remaining_bytes: float
    route: Route
    keys: List[Tuple]
    start_time: float
    done: Event
    label: str = ""
    rate_mbps: float = 0.0
    end_time: Optional[float] = None


@dataclass(frozen=True)
class TransferResult:
    """Outcome of a completed transfer."""

    src: str
    dst: str
    size_bytes: float
    start_time: float
    end_time: float
    label: str = ""

    @property
    def duration(self) -> float:
        return self.end_time - self.start_time

    @property
    def bandwidth_mbps(self) -> float:
        """Observed application-level throughput in Mbit/s."""
        if self.duration <= 0:
            return float("inf")
        return self.size_bytes * 8.0 / 1e6 / self.duration


class FlowModel:
    """Dynamic max-min fair flow model bound to an engine and a platform.

    Parameters
    ----------
    engine:
        The simulation engine providing the clock.
    platform:
        The topology whose links/hubs constrain the flows.
    tracer:
        Optional :class:`Tracer` that receives ``flow.start`` / ``flow.end``
        records (used by the intrusiveness analysis).
    efficiency:
        Fraction of the nominal link bandwidth achievable by TCP payload
        (protocol overhead); 1.0 by default so that analytic expectations are
        exact in tests.
    noise_rng / noise_sigma:
        Optional multiplicative log-normal noise on transfer durations, to
        model measurement jitter.
    incremental:
        When flows start or finish, recompute rates only for the
        contention-graph component the change touches instead of re-solving
        every active flow (bit-identical results: components are independent
        under max-min sharing).  Defaults to the global fast-path switch.
    """

    def __init__(self, engine: Engine, platform: Platform,
                 tracer: Optional[Tracer] = None, efficiency: float = 1.0,
                 noise_rng: Optional[np.random.Generator] = None,
                 noise_sigma: float = 0.0,
                 incremental: Optional[bool] = None):
        if not 0.0 < efficiency <= 1.0:
            raise ValueError("efficiency must be in (0, 1]")
        self.engine = engine
        self.platform = platform
        self.tracer = tracer
        self.efficiency = efficiency
        self.noise_rng = noise_rng
        self.noise_sigma = noise_sigma
        self.incremental = (fast_path_enabled() if incremental is None
                            else bool(incremental))
        self.capacities = {
            key: cap * efficiency for key, cap in platform.capacities().items()
        }
        self.active: Dict[int, Flow] = {}
        #: Constraint key -> fids of active flows crossing it (the contention
        #: graph the incremental reallocation walks).
        self._key_members: Dict[Tuple, set] = {}
        self._last_update = engine.now
        self._generation = 0
        #: Steady-state rate memo, valid for one platform version.  Models
        #: created at the current platform version share the platform-wide
        #: cache (identical capacities snapshot); a model that outlives a
        #: mutation falls back to this private memo because its snapshot no
        #: longer matches the live topology.
        self._steady_memo: Dict[Tuple, List[float]] = {}
        self._memo_platform_version = platform.version
        self._created_version = platform.version
        self.total_bytes_transferred = 0.0
        self.completed_transfers = 0

    # -- public API -----------------------------------------------------------
    def transfer(self, src: str, dst: str, size_bytes: float, label: str = "") -> Event:
        """Start a transfer of ``size_bytes`` from ``src`` to ``dst``.

        Returns an event that fires with a :class:`TransferResult` once the
        last byte has been delivered.  The one-way route latency is charged
        before the data starts flowing.
        """
        if size_bytes < 0:
            raise ValueError("size_bytes must be >= 0")
        done = self.engine.event()
        from .firewall import CommunicationBlocked, platform_allows

        if not platform_allows(self.platform, src, dst):
            done.fail(CommunicationBlocked(src, dst))
            return done
        if src == dst or size_bytes == 0:
            start = self.engine.now
            done.succeed(TransferResult(src=src, dst=dst, size_bytes=size_bytes,
                                        start_time=start, end_time=start,
                                        label=label))
            return done
        route = self.platform.route(src, dst)
        start_time = self.engine.now
        latency = route.latency

        def _begin() -> None:
            self._progress_to_now()
            flow = Flow(
                fid=next(_flow_ids), src=src, dst=dst,
                size_bytes=float(size_bytes),
                remaining_bytes=float(size_bytes),
                route=route, keys=route.constraint_keys(self.platform),
                start_time=start_time, done=done, label=label,
            )
            self.active[flow.fid] = flow
            for key in flow.keys:
                self._key_members.setdefault(key, set()).add(flow.fid)
            if not flow.keys:
                flow.rate_mbps = float("inf")
            if self.tracer is not None:
                self.tracer.emit(self.engine.now, "flow.start", fid=flow.fid,
                                 src=src, dst=dst, size=size_bytes, label=label)
            self._reallocate(seed_keys=flow.keys)

        # Charge the one-way latency before data flows.
        self.engine.call_at(self.engine.now + latency, _begin)
        return done

    def active_flow_count(self) -> int:
        """Number of flows currently in progress."""
        return len(self.active)

    def steady_state_mbps(self, pairs: Sequence[Tuple[str, str]]) -> List[float]:
        """Analytic steady-state rates (Mbit/s) if all ``pairs`` transfer at once.

        This does not touch the simulation state; it is the ground-truth
        oracle used by tests and by the analysis module.  Results are
        memoised per pair tuple while the platform stays unmutated (the
        quality metrics query the same pairs thousands of times).
        """
        if not fast_path_enabled():
            keys = [self.platform.route(s, d).constraint_keys(self.platform)
                    for s, d in pairs]
            return max_min_allocation(keys, dict(self.capacities))
        version = self.platform.version
        if self._created_version == version:
            slot = self.platform._steady_cache.get(self.efficiency)
            if slot is None or slot["version"] != version:
                slot = {"version": version, "entries": {}}
                self.platform._steady_cache[self.efficiency] = slot
            memo = slot["entries"]
        else:
            # The platform mutated under this model: its capacities snapshot
            # is stale, so its results must not be shared.
            if self._memo_platform_version != version:
                self._steady_memo.clear()
                self._memo_platform_version = version
            memo = self._steady_memo
        memo_key = tuple(pairs)
        cached = memo.get(memo_key)
        if cached is None:
            keys = [self.platform.route(s, d).constraint_keys(self.platform)
                    for s, d in pairs]
            cached = max_min_allocation(keys, self.capacities)
            memo[memo_key] = cached
        return list(cached)

    def single_flow_mbps(self, src: str, dst: str) -> float:
        """Analytic bandwidth of a single flow between ``src`` and ``dst``."""
        return self.steady_state_mbps([(src, dst)])[0]

    # -- internals --------------------------------------------------------------
    def _progress_to_now(self) -> None:
        now = self.engine.now
        elapsed = now - self._last_update
        if elapsed > 0:
            for flow in self.active.values():
                flow.remaining_bytes -= mbps_to_bytes_per_s(flow.rate_mbps) * elapsed
                if flow.remaining_bytes < COMPLETION_EPSILON_BYTES:
                    flow.remaining_bytes = 0.0
        self._last_update = now

    def _component_flows(self, seed_keys: Iterable[Tuple]) -> List[Flow]:
        """Active flows in the contention-graph component of ``seed_keys``.

        Flows are returned in activation order (the order a from-scratch
        recomputation would see them), which keeps the incremental allocation
        bit-identical to the global one.
        """
        seen_keys = set()
        fids = set()
        stack = list(seed_keys)
        members = self._key_members
        while stack:
            key = stack.pop()
            if key in seen_keys:
                continue
            seen_keys.add(key)
            for fid in members.get(key, ()):
                if fid not in fids:
                    fids.add(fid)
                    stack.extend(self.active[fid].keys)
        if not fids:
            return []
        # fids are assigned monotonically and flows are registered in fid
        # order, so ascending fid == activation (dict insertion) order; this
        # keeps the walk O(component) instead of scanning every active flow.
        return [self.active[fid] for fid in sorted(fids)]

    def _reallocate(self, seed_keys: Optional[Iterable[Tuple]] = None) -> None:
        """Recompute rates and (re)schedule the next completion.

        ``seed_keys`` names the constraint keys touched by the flow that just
        started or finished; with the incremental mode on, only the
        contention-graph component reachable from them is re-solved.  Max-min
        components are independent (no constraint spans two of them), so the
        untouched flows' rates are exactly what a full recomputation would
        assign — they only need progress accounting, which
        :meth:`_progress_to_now` already did.
        """
        self._generation += 1
        generation = self._generation
        if not self.active:
            return
        if seed_keys is not None and self.incremental:
            flows = self._component_flows(seed_keys)
        else:
            flows = list(self.active.values())
        if flows:
            rates = max_min_allocation([f.keys for f in flows],
                                       self.capacities)
            for flow, rate in zip(flows, rates):
                flow.rate_mbps = rate
        next_completion = float("inf")
        for flow in self.active.values():
            rate = flow.rate_mbps
            if rate <= 0:
                continue
            eta = flow.remaining_bytes / mbps_to_bytes_per_s(rate)
            next_completion = min(next_completion, eta)
        if next_completion == float("inf"):
            return
        when = self.engine.now + max(next_completion, 0.0)
        self.engine.call_at(when, lambda: self._on_timer(generation))

    def _on_timer(self, generation: int) -> None:
        if generation != self._generation:
            return  # superseded by a later reallocation
        self._progress_to_now()
        finished = [f for f in self.active.values()
                    if f.remaining_bytes <= COMPLETION_EPSILON_BYTES]
        if not finished and self.active:
            # Failsafe against numerical stalls: the timer fired because some
            # flow was expected to finish now; force-complete the flow closest
            # to completion so the simulation always makes progress.
            flows_with_rate = [f for f in self.active.values() if f.rate_mbps > 0]
            if flows_with_rate:
                closest = min(flows_with_rate, key=lambda f: f.remaining_bytes)
                if closest.remaining_bytes <= 1.0:
                    closest.remaining_bytes = 0.0
                    finished = [closest]
        seed_keys = []
        for flow in finished:
            del self.active[flow.fid]
            for key in flow.keys:
                members = self._key_members.get(key)
                if members is not None:
                    members.discard(flow.fid)
                    if not members:
                        del self._key_members[key]
            seed_keys.extend(flow.keys)
            flow.end_time = self.engine.now
            self.total_bytes_transferred += flow.size_bytes
            self.completed_transfers += 1
            if self.tracer is not None:
                self.tracer.emit(self.engine.now, "flow.end", fid=flow.fid,
                                 src=flow.src, dst=flow.dst, size=flow.size_bytes,
                                 label=flow.label,
                                 duration=flow.end_time - flow.start_time)
            end_time = flow.end_time
            if self.noise_rng is not None and self.noise_sigma > 0:
                jitter = float(self.noise_rng.lognormal(mean=0.0,
                                                        sigma=self.noise_sigma))
                end_time = flow.start_time + (end_time - flow.start_time) * jitter
            flow.done.succeed(TransferResult(
                src=flow.src, dst=flow.dst, size_bytes=flow.size_bytes,
                start_time=flow.start_time, end_time=end_time, label=flow.label,
            ))
        self._reallocate(seed_keys=seed_keys)
