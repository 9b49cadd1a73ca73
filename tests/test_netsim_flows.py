"""Tests of the max-min fair flow model and TCP probes."""

import itertools

import pytest

from repro import perf
from repro.dynamics import DynamicScenario
from repro.scenarios import list_scenarios
from repro.simkernel import Engine, Tracer
from repro.netsim import (
    CommunicationBlocked,
    Firewall,
    FlowModel,
    TcpModel,
    attach_firewall,
    build_ens_lyon,
    max_min_allocation,
)
from tests.test_netsim_topology import small_platform


class TestMaxMinAllocation:
    def test_single_flow_gets_bottleneck(self):
        rates = max_min_allocation([[("l", "ab")]], {("l", "ab"): 100.0})
        assert rates == [100.0]

    def test_two_flows_share_equally(self):
        keys = [[("l", "shared")], [("l", "shared")]]
        assert max_min_allocation(keys, {("l", "shared"): 100.0}) == [50.0, 50.0]

    def test_unequal_bottlenecks(self):
        caps = {("a", "ab"): 10.0, ("b", "ab"): 100.0, ("c", "ab"): 100.0}
        keys = [[("a", "ab"), ("c", "ab")], [("b", "ab"), ("c", "ab")]]
        rates = max_min_allocation(keys, caps)
        assert rates[0] == pytest.approx(10.0)
        assert rates[1] == pytest.approx(90.0)

    def test_unconstrained_flow_gets_infinity(self):
        assert max_min_allocation([[]], {}) == [float("inf")]

    def test_flow_over_infinite_capacities_gets_infinity(self):
        inf = float("inf")
        assert max_min_allocation([[("l", "a")]], {("l", "a"): inf}) == [inf]
        caps = {("l", "a"): inf, ("l", "b"): 10.0}
        keys = [[("l", "a")], [("l", "a"), ("l", "b")]]
        assert max_min_allocation(keys, caps) == [inf, 10.0]

    def test_unknown_key_raises(self):
        with pytest.raises(KeyError):
            max_min_allocation([[("missing", "ab")]], {})

    def test_three_way_fairness(self):
        keys = [[("l", "shared")]] * 3
        rates = max_min_allocation(keys, {("l", "shared"): 90.0})
        assert rates == [30.0, 30.0, 30.0]

    def test_allocation_never_exceeds_capacity(self):
        caps = {("x", "ab"): 50.0, ("y", "ab"): 80.0}
        keys = [[("x", "ab")], [("x", "ab"), ("y", "ab")], [("y", "ab")]]
        rates = max_min_allocation(keys, caps)
        assert rates[0] + rates[1] <= 50.0 + 1e-9
        assert rates[1] + rates[2] <= 80.0 + 1e-9


class TestFlowModel:
    def test_single_transfer_duration(self):
        p = small_platform()
        eng = Engine()
        fm = FlowModel(eng, p)
        ev = fm.transfer("a", "c", 1_000_000)
        result = eng.run(until=ev)
        # 1 MB over 100 Mbit/s = 0.08 s plus the route latency twice (one-way
        # charged before data flows, transfer afterwards).
        assert result.duration == pytest.approx(0.08 + 2 * 4e-4, rel=0.01)
        assert result.bandwidth_mbps == pytest.approx(99.0, rel=0.02)

    def test_same_host_transfer_is_instant(self):
        p = small_platform()
        eng = Engine()
        fm = FlowModel(eng, p)
        ev = fm.transfer("a", "a", 1000)
        result = eng.run(until=ev)
        assert result.duration == 0.0

    def test_negative_size_rejected(self):
        p = small_platform()
        fm = FlowModel(Engine(), p)
        with pytest.raises(ValueError):
            fm.transfer("a", "b", -1)

    def test_concurrent_hub_transfers_halve_bandwidth(self):
        """The §2.3 collision effect: two probes on one hub each see ~half."""
        p = small_platform()
        eng = Engine()
        fm = FlowModel(eng, p)
        ev1 = fm.transfer("a", "c", 1_000_000)
        ev2 = fm.transfer("b", "c", 1_000_000)
        r1 = eng.run(until=ev1)
        r2 = eng.run(until=ev2)
        assert r1.bandwidth_mbps == pytest.approx(50.0, rel=0.05)
        assert r2.bandwidth_mbps == pytest.approx(50.0, rel=0.05)

    def test_steady_state_matches_simulation(self):
        p = small_platform()
        fm = FlowModel(Engine(), p)
        rates = fm.steady_state_mbps([("a", "c"), ("b", "c")])
        assert rates == [pytest.approx(50.0), pytest.approx(50.0)]

    def test_switched_ports_do_not_interfere(self):
        platform = build_ens_lyon()
        fm = FlowModel(Engine(), platform)
        rates = fm.steady_state_mbps([("sci1", "sci2"), ("sci3", "sci4")])
        assert rates[0] == pytest.approx(100.0)
        assert rates[1] == pytest.approx(100.0)

    def test_sequential_transfers_do_not_interfere(self):
        p = small_platform()
        eng = Engine()
        fm = FlowModel(eng, p)
        first = eng.run(until=fm.transfer("a", "c", 500_000))
        second = eng.run(until=fm.transfer("b", "c", 500_000))
        assert first.bandwidth_mbps == pytest.approx(second.bandwidth_mbps, rel=0.01)

    def test_tracer_records_flows(self):
        p = small_platform()
        eng = Engine()
        tracer = Tracer()
        fm = FlowModel(eng, p, tracer=tracer)
        eng.run(until=fm.transfer("a", "b", 1000, label="probe"))
        assert len(tracer.select("flow.start", label="probe")) == 1
        assert len(tracer.select("flow.end", label="probe")) == 1

    def test_completed_counters(self):
        p = small_platform()
        eng = Engine()
        fm = FlowModel(eng, p)
        eng.run(until=fm.transfer("a", "b", 1234))
        assert fm.completed_transfers == 1
        assert fm.total_bytes_transferred == pytest.approx(1234)

    def test_efficiency_scales_capacity(self):
        p = small_platform()
        fm = FlowModel(Engine(), p, efficiency=0.5)
        assert fm.single_flow_mbps("a", "b") == pytest.approx(50.0)

    def test_invalid_efficiency_rejected(self):
        with pytest.raises(ValueError):
            FlowModel(Engine(), small_platform(), efficiency=0.0)

    def test_firewall_blocks_transfer(self):
        p = small_platform()
        for name, dom in (("a", "private"), ("b", "private"), ("c", "public")):
            p.nodes[name].domain = dom
        fw = Firewall()
        fw.isolate_domain("private", gateways=("a",))
        attach_firewall(p, fw)
        eng = Engine()
        fm = FlowModel(eng, p)
        ev = fm.transfer("b", "c", 1000)
        assert ev.triggered and not ev.ok
        assert isinstance(ev.value, CommunicationBlocked)
        # the gateway is still allowed
        ok = fm.transfer("a", "c", 1000)
        eng.run(until=ok)

    def test_many_concurrent_flows_complete(self):
        platform = build_ens_lyon(with_firewall=False)
        eng = Engine()
        fm = FlowModel(eng, platform)
        hosts = platform.host_names()
        events = [fm.transfer(a, b, 50_000)
                  for a in hosts[:6] for b in hosts[6:12] if a != b]
        eng.run(until=eng.all_of(events))
        assert fm.active_flow_count() == 0
        assert fm.completed_transfers == len(events)


def lone_flow_allocation(model, src, dst):
    """The progressive-filling rate of ``src -> dst`` as the only flow."""
    keys = model.platform.route(src, dst).constraint_keys(model.platform)
    return max_min_allocation([keys], model.capacities)[0]


class TestSingleFlowClosedForm:
    """A lone flow's max-min rate is its route's tightest capacity; the
    allocation it replaces is the oracle."""

    def test_catalog_pairs_match_the_allocation(self):
        compared = 0
        for scenario in list_scenarios():
            if isinstance(scenario, DynamicScenario):
                continue
            model = FlowModel(Engine(), scenario.build())
            hosts = model.platform.host_names()
            for src, dst in itertools.permutations(hosts, 2):
                expected = lone_flow_allocation(model, src, dst)
                assert model.single_flow_mbps(src, dst) == expected, \
                    (scenario.name, src, dst)
                with perf.fast_path(False):
                    assert model.single_flow_mbps(src, dst) == expected
                compared += 1
        assert compared > 4000

    def test_model_built_before_a_mutation_keeps_its_snapshot(self):
        # The stale-capacity behaviour of a model that outlives a mutation
        # is unchanged: both the closed form and the allocation read the
        # capacities copied at construction, while routes are read live.
        platform = build_ens_lyon()
        stale = FlowModel(Engine(), platform)
        for name, link in platform.links.items():
            platform.set_link_bandwidth(name, link.bandwidth_mbps / 10.0)
        fresh = FlowModel(Engine(), platform)
        hosts = platform.host_names()
        for src, dst in itertools.permutations(hosts, 2):
            expected = lone_flow_allocation(stale, src, dst)
            assert stale.single_flow_mbps(src, dst) == expected
            with perf.fast_path(False):
                assert stale.single_flow_mbps(src, dst) == expected
        assert stale.single_flow_mbps("sci1", "sci2") == \
            10.0 * fresh.single_flow_mbps("sci1", "sci2")

    def test_route_of_infinite_capacities_rates_infinity(self):
        # Assigned directly: validate() and the setters refuse inf.
        platform = small_platform()
        for link in platform.links.values():
            link.bandwidth_mbps = float("inf")
        platform.nodes["hub"].bandwidth_mbps = float("inf")
        model = FlowModel(Engine(), platform)
        assert model.single_flow_mbps("a", "c") == float("inf")
        with perf.fast_path(False):
            assert model.single_flow_mbps("a", "c") == float("inf")

    def test_closed_form_solves_no_allocation(self):
        model = FlowModel(Engine(), small_platform())
        before = perf.counters_snapshot()["allocations"]
        assert model.single_flow_mbps("a", "b") == pytest.approx(100.0)
        assert model.single_flow_mbps("a", "a") == float("inf")
        assert perf.counters_snapshot()["allocations"] == before


class TestTcpModel:
    def test_rtt_and_connect(self):
        p = small_platform()
        tcp = TcpModel(FlowModel(Engine(), p))
        assert tcp.rtt("a", "c") == pytest.approx(8e-4)
        assert tcp.connect_time("a", "c") == pytest.approx(1.5 * 8e-4)

    def test_bandwidth_probe_matches_analytic(self):
        p = small_platform()
        tcp = TcpModel(FlowModel(Engine(), p))
        outcome = tcp.run_bandwidth_probe("a", "c")
        assert outcome.kind == "bandwidth"
        assert outcome.value == pytest.approx(tcp.analytic_bandwidth("a", "c"), rel=0.02)

    def test_latency_probe_close_to_rtt(self):
        p = small_platform()
        tcp = TcpModel(FlowModel(Engine(), p))
        outcome = tcp.run_latency_probe("a", "c")
        assert outcome.value == pytest.approx(tcp.rtt("a", "c"), rel=0.05)
