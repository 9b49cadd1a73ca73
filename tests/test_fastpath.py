"""Equivalence and correctness tests for the fast-path overhaul.

Three pillars, matching the three layers of the optimisation:

* the **incremental** max-min reallocation in :class:`FlowModel` must be
  indistinguishable from the from-scratch recomputation on arbitrary flow
  arrival/departure sequences (hypothesis-driven), and the progressive
  filling must equal the pre-overhaul loop bit for bit;
* the **probe memo** must return exactly the value a fresh measurement
  would produce, and platform mutations must invalidate exactly the
  affected entries;
* the **scoped route-cache invalidation** must keep unaffected cached
  routes alive through churn-heavy mutation sequences while staying
  correct against a freshly built platform.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro import perf
from repro.core.constraints import _find_collisions_reference, find_collisions
from repro.core import plan_from_view
from repro.env import AnalyticProbeDriver, ProbeMemo, map_platform
from repro.netsim import Platform, max_min_allocation
from repro.netsim.flows import FlowModel
from repro.netsim.generators import WanGridSpec, generate_wan_grid
from repro.simkernel import Engine


def build_contended_platform() -> Platform:
    """Two hub segments and a switch joined by narrow trunks.

    Small enough for fast simulation, contended enough that flows form
    non-trivial contention-graph components.
    """
    p = Platform("contended")
    p.add_hub("hub1", bandwidth_mbps=100.0)
    p.add_hub("hub2", bandwidth_mbps=10.0)
    p.add_switch("sw")
    for i, attach in enumerate(["hub1", "hub1", "hub2", "hub2", "sw", "sw"]):
        host = p.add_host(f"h{i}", f"10.0.0.{i + 1}")
        p.add_link(host.name, attach, bandwidth_mbps=100.0)
    p.add_link("hub1", "sw", bandwidth_mbps=20.0)
    p.add_link("hub2", "sw", bandwidth_mbps=5.0)
    return p


# ---------------------------------------------------------------------------
# Incremental reallocation == from-scratch reallocation
# ---------------------------------------------------------------------------
transfers = st.tuples(
    st.integers(min_value=0, max_value=5),    # src host index
    st.integers(min_value=0, max_value=5),    # dst host index
    st.floats(min_value=1e3, max_value=5e6),  # size in bytes
    st.floats(min_value=0.0, max_value=2.0),  # start time offset
)
transfer_schedules = st.lists(transfers, min_size=1, max_size=12)


def _run_schedule(platform: Platform, schedule, incremental: bool):
    engine = Engine()
    model = FlowModel(engine, platform, incremental=incremental)
    events = []
    hosts = platform.host_names()
    for src_idx, dst_idx, size, start in schedule:
        src, dst = hosts[src_idx], hosts[dst_idx]
        if src == dst:
            continue

        def _start(src=src, dst=dst, size=size):
            events.append(model.transfer(src, dst, size))

        engine.call_at(start, _start)
    engine.run()
    return [(ev.value.src, ev.value.dst, ev.value.start_time,
             ev.value.end_time) for ev in events]


@settings(max_examples=40, deadline=None)
@given(schedule=transfer_schedules)
def test_incremental_reallocation_matches_full(schedule):
    platform = build_contended_platform()
    full = _run_schedule(platform, schedule, incremental=False)
    incremental = _run_schedule(platform, schedule, incremental=True)
    # Bit-identical completion times: max-min components are independent, so
    # skipping the untouched ones must not change a single float.
    assert incremental == full


@st.composite
def allocation_problems(draw):
    n_keys = draw(st.integers(min_value=1, max_value=8))
    keys = [("k", i) for i in range(n_keys)]
    capacities = {key: draw(st.floats(min_value=0.5, max_value=1000.0))
                  for key in keys}
    n_flows = draw(st.integers(min_value=1, max_value=40))
    flow_keys = [
        draw(st.lists(st.sampled_from(keys), min_size=0, max_size=n_keys,
                      unique=True))
        for _ in range(n_flows)
    ]
    return flow_keys, capacities


@settings(max_examples=60, deadline=None)
@given(problem=allocation_problems())
def test_allocation_equals_pre_overhaul_loop(problem):
    flow_keys, capacities = problem
    assert (max_min_allocation(flow_keys, capacities)
            == _reference_scalar(flow_keys, capacities))


def _reference_scalar(flow_keys, capacities):
    """The pre-overhaul from-scratch progressive filling (kept verbatim)."""
    n = len(flow_keys)
    rates = [0.0] * n
    active = set(range(n))
    remaining = dict(capacities)
    key_members = {}
    for idx, keys in enumerate(flow_keys):
        for key in keys:
            key_members.setdefault(key, set()).add(idx)
    for idx in list(active):
        if not flow_keys[idx]:
            rates[idx] = float("inf")
            active.discard(idx)
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
            break
        frozen = key_members[best_key] & active
        for idx in frozen:
            rates[idx] = best_share
            active.discard(idx)
            for key in flow_keys[idx]:
                remaining[key] = max(0.0, remaining[key] - best_share)
        key_members[best_key] = set()
    return rates


def test_find_collisions_fast_matches_reference():
    platform = generate_wan_grid(WanGridSpec(rows=2, cols=2, seed=11))
    view = map_platform(platform, platform.host_names()[0])
    plan = plan_from_view(view)
    fast = find_collisions(plan, platform)
    reference = _find_collisions_reference(plan, platform)
    assert fast == reference


# ---------------------------------------------------------------------------
# Probe memo correctness under platform mutation
# ---------------------------------------------------------------------------
class TestProbeMemo:
    SIZE = 64 * 1024

    def test_repeat_probe_hits_memo_with_identical_value(self):
        platform = build_contended_platform()
        driver = AnalyticProbeDriver(platform)
        first = driver.bandwidth("h0", "h2", self.SIZE)
        assert driver.stats.measurements == 1
        second = driver.bandwidth("h0", "h2", self.SIZE)
        assert second == first
        assert driver.stats.measurements == 1
        assert driver.stats.memo_hits == 1

    def test_concurrent_probe_memoised_per_pair_tuple(self):
        platform = build_contended_platform()
        driver = AnalyticProbeDriver(platform)
        pairs = [("h0", "h2"), ("h1", "h3")]
        first = driver.concurrent_bandwidths(pairs, self.SIZE)
        second = driver.concurrent_bandwidths(pairs, self.SIZE)
        assert second == first
        assert driver.stats.measurements == 1
        assert driver.stats.memo_hits == 1
        # A different order is a different experiment: no hit.
        driver.concurrent_bandwidths(list(reversed(pairs)), self.SIZE)
        assert driver.stats.measurements == 2

    def test_mutating_a_crossed_link_invalidates(self):
        # Driver instances snapshot link capacities (pre-existing analytic
        # semantics), so mutation effects are observed through a *new* driver
        # sharing the memo — exactly the dynamics.remap warm-start shape.
        platform = build_contended_platform()
        memo = ProbeMemo()
        first = AnalyticProbeDriver(platform, memo=memo)
        before = first.bandwidth("h0", "h2", self.SIZE)
        # h0 -> h2 bottlenecks on the 5 Mbit/s hub2--sw trunk.
        platform.set_link_bandwidth("hub2--sw", 2.0)
        second = AnalyticProbeDriver(platform, memo=memo)
        after = second.bandwidth("h0", "h2", self.SIZE)
        assert second.stats.measurements == 1
        assert second.stats.memo_hits == 0
        assert after != before

    def test_mutating_an_unrelated_link_keeps_entry_warm(self):
        platform = build_contended_platform()
        driver = AnalyticProbeDriver(platform)
        value = driver.bandwidth("h4", "h5", self.SIZE)  # stays on the switch
        platform.set_link_bandwidth("hub2--sw", 1.0)
        assert driver.bandwidth("h4", "h5", self.SIZE) == value
        assert driver.stats.measurements == 1
        assert driver.stats.memo_hits == 1

    def test_route_flap_invalidates_only_that_pair(self):
        platform = build_contended_platform()
        driver = AnalyticProbeDriver(platform)
        driver.bandwidth("h0", "h2", self.SIZE)
        driver.bandwidth("h4", "h5", self.SIZE)
        platform.set_route("h0", "h2", ["h0", "hub1", "sw", "hub2", "h2"])
        driver.bandwidth("h0", "h2", self.SIZE)   # re-measured
        driver.bandwidth("h4", "h5", self.SIZE)   # still warm
        assert driver.stats.measurements == 3
        assert driver.stats.memo_hits == 1

    def test_memo_shared_across_drivers(self):
        platform = build_contended_platform()
        memo = ProbeMemo()
        first = AnalyticProbeDriver(platform, memo=memo)
        value = first.bandwidth("h0", "h1", self.SIZE)
        second = AnalyticProbeDriver(platform, memo=memo)
        assert second.bandwidth("h0", "h1", self.SIZE) == value
        assert second.stats.measurements == 0
        assert second.stats.memo_hits == 1

    def test_noisy_driver_never_memoises(self):
        platform = build_contended_platform()
        driver = AnalyticProbeDriver(platform, noise_sigma=0.3)
        assert driver.memo is None
        a = driver.bandwidth("h0", "h1", self.SIZE)
        b = driver.bandwidth("h0", "h1", self.SIZE)
        assert a != b  # fresh jitter per measurement
        assert driver.stats.measurements == 2


# ---------------------------------------------------------------------------
# Scoped route-cache invalidation (churn-heavy replays)
# ---------------------------------------------------------------------------
class TestScopedRouteCache:
    def test_bandwidth_drift_keeps_every_cached_route(self):
        platform = build_contended_platform()
        hosts = platform.host_names()
        routes = {(a, b): platform.route(a, b)
                  for a in hosts for b in hosts if a != b}
        for _ in range(50):  # churn-heavy: drift every link repeatedly
            for name in list(platform.links):
                platform.set_link_bandwidth(
                    name, platform.links[name].bandwidth_mbps * 1.01)
        for pair, route in routes.items():
            assert platform.route(*pair) is route

    def test_remove_link_drops_only_traversing_routes(self):
        # A switch triangle so a failed trunk leaves a detour available.
        platform = Platform("triangle")
        for name in ("sw1", "sw2", "sw3"):
            platform.add_switch(name)
        for i, attach in enumerate(["sw1", "sw2", "sw3"]):
            platform.add_host(f"t{i}", f"10.1.0.{i + 1}")
            platform.add_link(f"t{i}", attach, bandwidth_mbps=100.0)
        platform.add_link("sw1", "sw2", bandwidth_mbps=50.0)
        platform.add_link("sw2", "sw3", bandwidth_mbps=50.0)
        platform.add_link("sw1", "sw3", bandwidth_mbps=50.0)
        crossing = platform.route("t0", "t1")     # t0-sw1-sw2-t1
        untouched = platform.route("t0", "t2")    # t0-sw1-sw3-t2
        removed = platform.remove_link("sw1--sw2")
        assert platform.route("t0", "t2") is untouched
        rerouted = platform.route("t0", "t1")
        assert rerouted is not crossing
        assert all(l.name != "sw1--sw2" for l in rerouted.links)
        assert rerouted.nodes == ["t0", "sw1", "sw3", "sw2", "t1"]
        # Repair adds an edge back: every cached route must be rebuilt, so
        # the repaired topology routes exactly like before the failure.
        platform.restore_link(removed)
        assert platform.route("t0", "t1").nodes == crossing.nodes

    def test_route_override_invalidates_single_pair(self):
        platform = build_contended_platform()
        flapped = platform.route("h0", "h2")
        other = platform.route("h1", "h3")
        platform.set_route("h0", "h2", ["h0", "hub1", "sw", "hub2", "h2"])
        assert platform.route("h1", "h3") is other
        assert platform.route("h0", "h2") is not flapped
        platform.clear_route("h0", "h2")
        assert platform.route("h0", "h2").nodes == flapped.nodes
        assert platform.route("h1", "h3") is other

    def test_churn_sequence_stays_correct_vs_fresh_platform(self):
        platform = build_contended_platform()
        hosts = platform.host_names()
        for a in hosts:  # populate the cache
            for b in hosts:
                if a != b:
                    platform.route(a, b)
        platform.set_link_bandwidth("h0--hub1", 55.0)
        removed = platform.remove_link("hub1--sw")
        platform.restore_link(removed)
        platform.set_route("h2", "h3", ["h2", "hub2", "h3"])
        platform.clear_route("h2", "h3")
        platform.set_link_latency("h4--sw", 5e-4)
        fresh = build_contended_platform()
        fresh.set_link_bandwidth("h0--hub1", 55.0)
        fresh.set_link_latency("h4--sw", 5e-4)
        for a in hosts:
            for b in hosts:
                if a != b:
                    assert platform.route(a, b).nodes == fresh.route(a, b).nodes
        assert platform.capacities() == fresh.capacities()

    def test_version_counters_advance(self):
        platform = build_contended_platform()
        v0 = platform.version
        e0 = platform.element_version(("link", "h0--hub1"))
        platform.set_link_bandwidth("h0--hub1", 42.0)
        assert platform.version == v0 + 1
        assert platform.element_version(("link", "h0--hub1")) == e0 + 1
        epoch0 = platform.route_epoch
        platform.remove_link("hub2--sw")
        assert platform.route_epoch == epoch0  # removal never re-shortens
        platform.add_link("hub2", "sw", bandwidth_mbps=5.0, name="hub2--sw")
        assert platform.route_epoch == epoch0 + 1
        assert platform.pair_epoch("h0", "h2") == 0
        platform.set_route("h0", "h2", ["h0", "hub1", "sw", "hub2", "h2"])
        assert platform.pair_epoch("h0", "h2") == 1


# ---------------------------------------------------------------------------
# The fast-path switch itself
# ---------------------------------------------------------------------------
def test_fast_path_context_restores_previous_state():
    assert perf.fast_path_enabled()
    with pytest.raises(RuntimeError):
        with perf.fast_path(False):
            assert not perf.fast_path_enabled()
            raise RuntimeError("escapes")
    assert perf.fast_path_enabled()


def test_fast_path_off_disables_memo_and_incremental():
    with perf.fast_path(False):
        platform = build_contended_platform()
        driver = AnalyticProbeDriver(platform)
        assert driver.memo is None
        model = FlowModel(Engine(), platform)
        assert not model.incremental
